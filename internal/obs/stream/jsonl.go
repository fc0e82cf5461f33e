package stream

import (
	"bufio"
	"encoding/json"
	"io"
)

// WriteJSONL writes every event delivered on sub to w as one JSON object
// per line, returning once sub's channel closes (sub.Close or Hub.Close)
// with everything written and flushed. Lines are buffered and flushed
// whenever sub has nothing more waiting, so a quiet stream reaches w at
// once and a busy one goes out in buffer-sized writes.
//
// WriteJSONL is an ordinary subscriber: while it lags, the hub drops at
// sub's bounded buffer and counts exactly as for any other. On a write
// error it closes sub and returns the error; Publish never waits on w.
func WriteJSONL(sub *Sub, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for ev := range sub.Events() {
		err := enc.Encode(&ev)
		if err == nil && len(sub.Events()) == 0 {
			err = bw.Flush()
		}
		if err != nil {
			sub.Close()
			return err
		}
	}
	return bw.Flush()
}
