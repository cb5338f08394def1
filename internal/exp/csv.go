package exp

import (
	"io"

	"repro/internal/stack"
)

// WriteStacksCSV emits one row per stack with every component in speedup
// units (Figure 5 data). It is stack.EncodeCSV under its historical name.
func WriteStacksCSV(w io.Writer, bars []stack.Bar) error {
	return stack.EncodeCSV(w, bars)
}
