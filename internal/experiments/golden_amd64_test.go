//go:build amd64 && !amd64.v3

package experiments

// Below GOAMD64=v3 the compiler has no fused multiply-add to emit, so
// every float the simulator computes is rounded the same way the goldens
// were; elsewhere Go may fuse x*y+z and move the last digit.
func init() { goldenExact = true }
