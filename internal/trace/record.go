package trace

// Recorder wraps a Program and captures every op it hands the simulator, in
// delivery order. Because the op stream of an execution-driven program can
// depend on runtime feedback (KindPop branches on Feedback.PopOK), a
// faithful recording must be taken during a real simulation — wrap each
// program, run the simulation, then collect Ops. The simulator is
// deterministic, so replaying the captured streams reproduces the recorded
// run exactly.
//
// Recording is transparent: a Recorder hands on the inner program's
// batches unchanged, so a recorded run's Result equals an unrecorded one's.
type Recorder struct {
	inner Program
	ops   []Op
}

// NewRecorder wraps p for recording.
func NewRecorder(p Program) *Recorder {
	return &Recorder{inner: p}
}

// Next implements Program: the one-op batch.
func (r *Recorder) Next(fb Feedback) Op { return One(r, fb) }

// NextBatch implements Program.
func (r *Recorder) NextBatch(dst []Op, fb Feedback) int {
	n := r.inner.NextBatch(dst, fb)
	r.ops = append(r.ops, dst[:n]...)
	return n
}

// Ops returns the captured stream. The final op is KindEnd once the wrapped
// program has ended.
func (r *Recorder) Ops() []Op { return r.ops }
