package serve

// AppendFrame exposes appendFrame to the external tests, which check it
// against the router's result type too.
func AppendFrame[R sweepResult](b []byte, fr Frame[R]) []byte { return appendFrame(b, fr) }
