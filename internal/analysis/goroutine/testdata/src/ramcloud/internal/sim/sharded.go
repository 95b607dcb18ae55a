// sharded.go pins down that no file in package sim is exempt by name: a
// bare go statement here is flagged like anywhere else in the package.
package sim

func startWorkers(n int, run func(i int)) []chan int {
	start := make([]chan int, n)
	for i := 1; i < n; i++ {
		i := i
		ch := make(chan int)
		start[i] = ch
		go func() { // want `bare go statement in a deterministic package`
			for range ch {
				run(i)
			}
		}()
	}
	return start
}
