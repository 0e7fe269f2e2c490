package cluster

import "repro/internal/lockmgr"

// Test hooks onto the requesting-site lock cache, for the external
// tests in lockcache_test.go.

func (s *Site) CacheAdd(fileID, group string, mode lockmgr.Mode, off, length int64) {
	s.cacheAdd(fileID, group, mode, off, length)
}

func (s *Site) CacheCovers(fileID, group string, mode lockmgr.Mode, off, length int64) bool {
	return s.cacheCovers(fileID, group, mode, off, length)
}

func (s *Site) CacheTrim(fileID, group string, off, length int64) {
	s.cacheTrim(fileID, group, off, length)
}
