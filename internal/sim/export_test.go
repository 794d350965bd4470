package sim

// RunInline is Run with every record applied in line on the world
// goroutine, as a CheckpointLatency run applies them: the reference a
// pipelined run must equal byte for byte. A test hook, not a Config field.
func RunInline(cfg Config) (*Result, error) {
	return run(cfg, func(e *engine) { e.inline = true })
}
