package zone

// SortedSynthIndex returns a copy of the synthesized owner index as the zone
// holds it, or nil while no chain-order question has forced the sort. It is
// exported to the external test package only.
func (z *Zone) SortedSynthIndex() []SynthEntry {
	z.mu.Lock()
	defer z.mu.Unlock()
	if !z.synthSorted {
		return nil
	}
	return append([]SynthEntry(nil), z.synthIdx...)
}
