package fleet

import (
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
	start := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > start {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines at start, %d after the tests\n%s\n",
				start, n, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}
