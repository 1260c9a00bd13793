package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// Example demonstrates the event-scheduling kernel: a unit server
// modelled as callbacks. Each arrival either starts service or queues;
// each departure schedules the next service from the queue.
func Example() {
	k := sim.New()
	const service = 10 * sim.Millisecond
	var queue []string
	busy := false
	var busyTime sim.Time

	var start func(name string)
	start = func(name string) {
		busy = true
		busyTime += service
		k.After(service, func() {
			fmt.Printf("%s served at %v\n", name, k.Now())
			busy = false
			if len(queue) > 0 {
				next := queue[0]
				queue = queue[1:]
				start(next)
			}
		})
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("client-%d", i)
		k.At(0, func() {
			if busy {
				queue = append(queue, name)
				return
			}
			start(name)
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("utilization: %.0f%%\n", 100*float64(busyTime)/float64(k.Now()))
	// Output:
	// client-0 served at 10ms
	// client-1 served at 20ms
	// utilization: 100%
}

// ExampleKernel_Retain shows liveness accounting: an actor that waits
// on another's progress retains the kernel until it finishes, so a run
// that drains while it still waits reports a deadlock.
func ExampleKernel_Retain() {
	k := sim.New()
	k.Retain()
	k.After(25, func() {
		fmt.Printf("io done at %v\n", k.Now())
		k.After(0, func() {
			fmt.Printf("cpu resumed at %v\n", k.Now())
			k.Release()
		})
	})
	fmt.Println(k.Run())
	// Output:
	// io done at 25ms
	// cpu resumed at 25ms
	// <nil>
}
