//go:build !race

package experiments

const raceBuild = false // see race_test.go
