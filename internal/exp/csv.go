package exp

import (
	"io"

	"repro/internal/stack"
)

// WriteStacksCSV emits one row per stack with every component in speedup
// units (Figure 5 data): the CSV form of stack.Bars under its historical name.
func WriteStacksCSV(w io.Writer, bars []stack.Bar) error {
	return stack.Encode(w, stack.FormatCSV, bars)
}
