package fleet

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the suite when it leaves goroutines behind: after the
// tests, the count must return to where it started within 10s — time for
// detached simulations to finish and idle connections to close. A leak
// prints every remaining stack.
func TestMain(m *testing.M) {
	start, _ := goroutines()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(10 * time.Second)
		n, stacks := goroutines()
		for n > start && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			n, stacks = goroutines()
		}
		if n > start {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines at start, %d after the tests\n%s\n", start, n, stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// goroutines counts the live goroutines and returns their stacks. It leaves
// out those os/signal started: its signal loop runs for the rest of the
// process once anything asks for a signal, as the fuzzing coordinator does.
func goroutines() (n int, stacks []byte) {
	buf := make([]byte, 1<<20)
	stacks = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(stacks, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("\ncreated by os/signal.")) {
			n++
		}
	}
	return n, stacks
}
