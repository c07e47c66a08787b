package hihash

// GhostWindows reports the displacing table's open ghost-window count
// (displace.go): 0 at every crash-free quiescent point, positive while
// a crashed relocation may have left a stray copy.
func (s *Set) GhostWindows() int64 { return s.ghost.n.Load() }
