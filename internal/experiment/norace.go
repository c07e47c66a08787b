//go:build !race

package experiment

const raceBuild = false
