package singlewriter

// ownerPlusGoroutine is the double-writer the conformance self-test plants
// dynamically: the spawning goroutine and a spawned one both publish.
func ownerPlusGoroutine() {
	buf := &Buffer[int]{}
	done := make(chan struct{})
	go func() {
		buf.Publish(1, false) // want `buffer "buf" is published from multiple goroutines`
		close(done)
	}()
	<-done
	buf.Publish(2, true)
}

// twoGoroutines races two distinct go statements on one buffer.
func twoGoroutines() {
	buf := &Buffer[int]{}
	done := make(chan struct{}, 2)
	go func() {
		buf.Publish(1, false) // want `buffer "buf" is published from multiple goroutines`
		done <- struct{}{}
	}()
	go func() {
		buf.Publish(2, true) // want `buffer "buf" is published from multiple goroutines`
		done <- struct{}{}
	}()
	<-done
	<-done
}

// loopedSpawn is the N-workers-one-writer fan-out: every iteration starts
// another writer over the captured buffer.
func loopedSpawn() {
	buf := &Buffer[int]{}
	for i := 0; i < 4; i++ {
		go func(i int) {
			buf.Publish(i, false) // want `published from a goroutine spawned in a loop`
		}(i)
	}
}

// coordinatorPattern is the fan-out/fan-in coordinator shape and must
// pass: workers compute into private state, only the owner publishes.
func coordinatorPattern() {
	buf := &Buffer[int]{}
	results := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func(i int) { results <- i * i }(i)
	}
	sum := 0
	for i := 0; i < 4; i++ {
		sum += <-results
	}
	buf.Publish(sum, true)
}

// singleSpawnedWriter runs the one writer on its own goroutine — the
// normal stage shape — and must pass.
func singleSpawnedWriter() {
	buf := &Buffer[int]{}
	done := make(chan struct{})
	go func() {
		buf.Publish(1, true)
		close(done)
	}()
	<-done
}

// privateBufferPerGoroutine declares the buffer inside the spawned
// function: iterations never share a writer, so the loop is fine.
func privateBufferPerGoroutine() {
	for i := 0; i < 4; i++ {
		go func(i int) {
			buf := &Buffer[int]{}
			buf.Publish(i, true)
		}(i)
	}
}

// ownerOnly publishes many times from one goroutine; the invariant is one
// writer, not one publish.
func ownerOnly() {
	buf := &Buffer[int]{}
	for i := 0; i < 3; i++ {
		buf.Publish(i, false)
	}
	buf.Publish(3, true)
}
