//go:build !linux

package serve

// memAvailable is unsupported off Linux; the budget default falls back.
func memAvailable() int64 { return 0 }
