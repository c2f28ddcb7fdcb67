//go:build race

package simjob

func init() { raceEnabled = true }
