package wsrt

import (
	"testing"

	"palirria/internal/topo"
)

func TestFutureFib(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	var fib func(c *Ctx, n int) int64
	fib = func(c *Ctx, n int) int64 {
		if n < 2 {
			return int64(n)
		}
		fa := Go(c, func(cc *Ctx) int64 { return fib(cc, n-1) })
		b := fib(c, n-2)
		return fa.Join(c) + b
	}
	var got int64
	if _, err := rt.Run(func(c *Ctx) { got = fib(c, 22) }); err != nil {
		t.Fatal(err)
	}
	if got != 17711 {
		t.Fatalf("fib(22) = %d, want 17711", got)
	}
}

func TestFutureLIFOOrder(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(2), Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(func(c *Ctx) {
		a := Go(c, func(*Ctx) int { return 1 })
		b := Go(c, func(*Ctx) int { return 2 })
		// LIFO: b joins first, then a.
		if b.Join(c) != 2 || a.Join(c) != 1 {
			t.Error("future values wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFutureOutOfOrderPanics(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(2), Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	var recovered bool
	_, err = rt.Run(func(c *Ctx) {
		defer func() {
			if recover() != nil {
				recovered = true
				// Join the remaining spawns so the task exits cleanly.
				c.SyncAll()
			}
		}()
		a := Go(c, func(*Ctx) int { return 1 })
		Go(c, func(*Ctx) int { return 2 })
		a.Join(c) // wrong order: a is not the youngest
	})
	if err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("out-of-order join did not panic")
	}
}

func TestFutureDifferentTypes(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(4), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(func(c *Ctx) {
		fs := Go(c, func(*Ctx) string { return "hello" })
		fv := Go(c, func(*Ctx) []int { return []int{1, 2, 3} })
		if v := fv.Join(c); len(v) != 3 {
			t.Errorf("slice future = %v", v)
		}
		if s := fs.Join(c); s != "hello" {
			t.Errorf("string future = %q", s)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFutureDoubleJoinPanics joins a future twice with a spawn in between.
// The first join recycled the future's task record and the new spawn
// reuses it, so the second Join finds that record at the top of the
// pending joins; it must still panic rather than join the new spawn.
func TestFutureDoubleJoinPanics(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(1), Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	var recovered, reused bool
	_, err = rt.Run(func(c *Ctx) {
		a := Go(c, func(*Ctx) int { return 1 })
		rec := a.task
		if a.Join(c) != 1 {
			t.Error("future value wrong")
		}
		b := Go(c, func(*Ctx) int { return 2 })
		reused = b.task == rec
		func() {
			defer func() { recovered = recover() != nil }()
			a.Join(c)
		}()
		if b.Join(c) != 2 {
			t.Error("second future value wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Fatal("the second spawn did not reuse the first one's record")
	}
	if !recovered {
		t.Fatal("second Join did not panic")
	}
}
