package wsrt

// Typed futures over the WOOL spawn/sync discipline. WOOL's SYNC joins the
// youngest outstanding spawn, so futures join in LIFO order — the natural
// order of nested fork/join code. Join panics on out-of-order use rather
// than silently corrupting the queue discipline.

// Future holds the pending result of a spawned computation.
type Future[T any] struct {
	val  T
	task *rtTask
}

// Go spawns fn as a stealable task and returns a future for its result.
// The future must be joined (in LIFO order among this task's outstanding
// spawns) before the task body returns.
func Go[T any](c *Ctx, fn func(*Ctx) T) *Future[T] {
	f := &Future[T]{}
	c.Spawn(func(cc *Ctx) {
		f.val = fn(cc)
	})
	f.task = c.pending[len(c.pending)-1]
	return f
}

// Join waits for the future's computation (inlining it when it was not
// stolen, leapfrogging when it was) and returns its value. It must be
// called on the same Ctx that created the future, with the future being
// the youngest outstanding spawn — the LIFO discipline of WOOL's SYNC.
// A future joins once: the join recycles its task record, which a later
// spawn may reuse, so a second Join panics rather than join that spawn.
func (f *Future[T]) Join(c *Ctx) T {
	if f.task == nil {
		panic("wsrt: Future.Join called twice")
	}
	if len(c.pending) == 0 || c.pending[len(c.pending)-1] != f.task {
		panic("wsrt: Future.Join out of LIFO order (join the youngest spawn first)")
	}
	c.Sync()
	f.task = nil
	return f.val
}
