//go:build !race

package tensor

const raceBuild = false
