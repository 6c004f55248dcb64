package analysis

import "repro/internal/qodg"

// LastWriterState exposes the analysis's final per-qubit last-writer state
// so the suite can compare it with the oracle's (it is the seed Appender
// resumes from).
func (a *Analysis) LastWriterState() []qodg.NodeID { return a.lastWriter }
