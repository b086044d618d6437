// Package hotfix is the hotalloc fixture: every flagged allocation
// pattern inside an //hj17:hotpath function, the sanctioned idioms, and
// the unannotated control case.
package hotfix

import "fmt"

// The annotated hot path: every allocation pattern is flagged.
//
//hj17:hotpath
func Hot(vals []int, name, suffix string) int {
	f := func() int { return 1 } // want `closure literal`
	fmt.Println(name)            // want `fmt\.Println`
	m := map[int]int{}           // want `map literal`
	s := []int{1, 2}             // want `slice literal`
	var acc []int
	acc = append(acc, vals...) // want `append to un-preallocated local "acc"`
	buf := make([]byte, 0, 64) // want `make in`
	label := name + suffix     // want `string concatenation`
	bs := []byte(name)         // want `string conversion`
	_, _, _, _, _ = f, m, s, buf, bs
	return len(acc) + len(label)
}

// Panic arguments are exempt: the trap formats, the hot path does not.
//
//hj17:hotpath
func Guard(n int) {
	if n < 0 {
		panic(fmt.Sprintf("negative credit %d", n))
	}
}

// The pool-miss idiom is allowed: address of a struct literal.
//
//hj17:hotpath
func PoolMiss(free []*item) *item {
	if len(free) == 0 {
		return &item{}
	}
	return free[len(free)-1]
}

// The scratch-slice idiom is allowed: the local reuses backing storage.
//
//hj17:hotpath
func Scratch(w *world, vals []int) []int {
	out := w.scratch[:0]
	for _, v := range vals {
		out = append(out, v)
	}
	w.scratch = out
	return out
}

type item struct{ v int }

type world struct{ scratch []int }

// Unannotated functions may allocate freely.
func Cold(name string) []string {
	parts := []string{name + "!"}
	return append(parts, fmt.Sprint(name))
}

type timer struct{ fired int }

func (t *timer) fire()      { t.fired++ }
func (t *timer) delay() int { return t.fired }

func schedule(fn func())               {}
func scheduleCall(fn func(any), a any) {}

func timerFired(a any) { a.(*timer).fire() }

// A bound method value allocates a closure over its receiver.
//
//hj17:hotpath
func Arm(t *timer, s fmt.Stringer) {
	schedule(t.fire) // want `method value t\.fire`
	f := s.String    // want `method value s\.String`
	g := (t.fire)    // want `method value t\.fire`
	_, _ = f, g
}

// Calling a method, a method expression and the trampoline idiom are
// allowed.
//
//hj17:hotpath
func ArmCall(t *timer) int {
	t.fire()
	(t.fire)()
	defer t.fire()
	expr := (*timer).fire
	expr(t)
	scheduleCall(timerFired, t)
	return t.delay()
}
