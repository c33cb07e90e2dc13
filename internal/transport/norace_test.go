//go:build !race

package transport

const raceBuild = false
