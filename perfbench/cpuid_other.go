//go:build !amd64

package main

func cpuModel() string { return "unknown" }

// lanePath names the interior the packed kernels run: off amd64 they
// always take the pure-Go fallback.
func lanePath() string { return "pure-go" }
