package sim

// LaneState deliberately writes world-stopped state from a
// //lane:handler function: lanelint must flag it.
type LaneState struct {
	//lane:shard
	shards []int

	//lane:stopped advanced only at global barriers
	epoch int
}

//lane:handler
func (l *LaneState) Tick(i int) {
	l.shards[i]++
	l.epoch++
}
