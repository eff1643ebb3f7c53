package host

import "testing"

func all(*Command) bool  { return true }
func none(*Command) bool { return false }

func cmd(seq int64, class Class) *Command { return &Command{Seq: seq, Class: class} }

func TestNewArbiter(t *testing.T) {
	for name, want := range map[string]string{
		"":              "fifo",
		"fifo":          "fifo",
		"read-priority": "read-priority",
		"rp":            "read-priority",
	} {
		a, err := NewArbiter(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if a.Name() != want {
			t.Errorf("%q resolved to %q, want %q", name, a.Name(), want)
		}
	}
	if _, err := NewArbiter("round-robin"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// Heads reach Pick in submission order (ascending Seq) with no nils.
func TestFIFOPicksOldestDispatchable(t *testing.T) {
	heads := []*Command{cmd(2, ClassRead), cmd(5, ClassWrite), cmd(9, ClassWrite)}
	if got := (FIFO{}).Pick(heads, all); got != 0 {
		t.Errorf("Pick = %d, want 0 (seq 2)", got)
	}
	blocked := func(c *Command) bool { return c.Seq != 2 }
	if got := (FIFO{}).Pick(heads, blocked); got != 1 {
		t.Errorf("Pick = %d, want 1 (seq 5, oldest unblocked)", got)
	}
	if got := (FIFO{}).Pick(heads, none); got != -1 {
		t.Errorf("Pick = %d, want -1 when nothing is dispatchable", got)
	}
}

func TestReadPriorityPrefersReads(t *testing.T) {
	a := &ReadPriority{}
	heads := []*Command{cmd(1, ClassWrite), cmd(7, ClassRead)}
	if got := a.Pick(heads, all); got != 1 {
		t.Errorf("Pick = %d, want 1 (the read despite its younger seq)", got)
	}
	// Without reads the oldest write goes.
	heads = []*Command{cmd(3, ClassWrite), cmd(4, ClassWrite)}
	if got := a.Pick(heads, all); got != 0 {
		t.Errorf("Pick = %d, want 0 (oldest write)", got)
	}
	// The oldest dispatchable read wins over an older blocked one.
	heads = []*Command{cmd(1, ClassWrite), cmd(2, ClassRead), cmd(6, ClassRead)}
	blocked := func(c *Command) bool { return c.Seq != 2 }
	if got := a.Pick(heads, blocked); got != 2 {
		t.Errorf("Pick = %d, want 2 (seq 6, oldest unblocked read)", got)
	}
}

func TestReadPriorityStarvationPromotion(t *testing.T) {
	a := &ReadPriority{StarvationLimit: 3}
	write := cmd(1, ClassWrite)
	for i := 0; i < 3; i++ {
		heads := []*Command{write, cmd(int64(10+i), ClassRead)}
		if got := a.Pick(heads, all); got != 1 {
			t.Fatalf("bypass %d: Pick = %d, want the read", i, got)
		}
	}
	heads := []*Command{write, cmd(20, ClassRead)}
	if got := a.Pick(heads, all); got != 0 {
		t.Errorf("Pick = %d, want 0: write promoted after %d bypasses", got, 3)
	}
}
