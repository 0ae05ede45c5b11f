package history

// PackedLen returns the bytes the log's records occupy, for the budget
// tests: what the events cost once packed, before the slice's capacity.
func (l *Log) PackedLen() int { return len(l.buf) }
