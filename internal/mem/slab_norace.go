//go:build !race

package mem

func poison([]int64) {}
