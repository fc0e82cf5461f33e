// palirria-topo renders the DVS classification of a custom mesh and
// allotment, and — with -cluster — the live gossip view of a running
// Palirria cluster. The paper's topology figures (1, 2, 3, 9) come from
// palirria-bench -fig N.
//
// Usage:
//
//	palirria-topo -dims 8x6 -source 28 -d 3   # custom classification
//	palirria-topo -dims 8x6 -source 28 -series # allotment size series
//	palirria-topo -cluster http://localhost:8070  # gossip membership table
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"palirria/internal/cluster"
	"palirria/internal/plot"
	"palirria/internal/topo"
)

func main() {
	dims := flag.String("dims", "8x4", "mesh dimensions, e.g. 8, 8x4, 4x4x4")
	source := flag.Int("source", 20, "source core id")
	d := flag.Int("d", 2, "diaspora")
	reserved := flag.String("reserved", "0,1", "comma-separated reserved cores")
	series := flag.Bool("series", false, "print the allotment size series instead")
	clusterURL := flag.String("cluster", "", "base URL of a cluster member (node or router); print its gossip view table")
	flag.Parse()

	if *clusterURL != "" {
		if err := runCluster(*clusterURL, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "palirria-topo:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*dims, *source, *d, *reserved, *series); err != nil {
		fmt.Fprintln(os.Stderr, "palirria-topo:", err)
		os.Exit(1)
	}
}

// runCluster fetches one member's /cluster document and renders the
// membership as a table: every peer with its gossiped state and load
// signal, the node's own row marked with '*'.
func runCluster(base string, w io.Writer) error {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/cluster")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /cluster: status %d", resp.StatusCode)
	}
	v, err := cluster.DecodeView(resp.Body)
	if err != nil {
		return fmt.Errorf("decode /cluster: %w", err)
	}
	fmt.Fprintf(w, "cluster view from %s (%d members, %d gossip rounds)\n",
		v.Self.ID, len(v.Peers), v.Rounds)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PEER\tROLE\tSTATE\tD\tA\tSPARE\tQUEUED\tSHED\tP99\tSILENT")
	for _, p := range v.Peers {
		name := p.ID
		if p.Self {
			name += " *"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%v\t%s\t%s\n",
			name, p.Role, p.State, p.Desire, p.Allotment, p.Spare,
			p.Queued, p.Shed,
			time.Duration(p.AdmitP99*float64(time.Second)).Round(time.Microsecond),
			(time.Duration(p.SilentMS) * time.Millisecond).Round(time.Millisecond))
	}
	return tw.Flush()
}

// run renders the classification of the allotment at source with
// diaspora d on the dims mesh, or with series its size per diaspora.
func run(dims string, source, d int, reserved string, series bool) error {
	extents, err := topo.ParseMesh(dims)
	if err != nil {
		return err
	}
	m, err := topo.NewMesh(extents...)
	if err != nil {
		return err
	}
	if reserved != "" {
		var ids []topo.CoreID
		for _, part := range strings.Split(reserved, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad reserved list %q: %w", reserved, err)
			}
			if !m.Valid(topo.CoreID(v)) {
				return fmt.Errorf("reserved core %d is not on %s", v, m)
			}
			ids = append(ids, topo.CoreID(v))
		}
		m.Reserve(ids...)
	}
	if series {
		zones, err := topo.Zones(m, topo.CoreID(source), 0)
		if err != nil {
			return err
		}
		fmt.Printf("%s, source %d: allotment sizes per diaspora\n", m, source)
		for i, a := range zones {
			fmt.Printf("  d=%d: %d workers\n", i+1, a.Size())
		}
		return nil
	}
	a, err := topo.NewAllotment(m, topo.CoreID(source), d)
	if err != nil {
		return err
	}
	plot.ClassGrid(os.Stdout,
		fmt.Sprintf("%s: %d workers, source %d, diaspora %d", m, a.Size(), source, d),
		topo.Classify(a))
	return nil
}
