package incremental_test

import (
	"fmt"

	"wpinq/internal/incremental"
)

func Example() {
	// Build a dataflow graph once; then push differences through it.
	// Intersect keeps each record at the smaller of its two weights.
	a, b := incremental.NewInput[string](), incremental.NewInput[string]()
	both := incremental.Collect[string](incremental.Intersect[string](a, b))

	a.Push([]incremental.Delta[string]{{Record: "apple", Weight: 2}, {Record: "fig", Weight: 1}})
	b.Push([]incremental.Delta[string]{{Record: "apple", Weight: 1}, {Record: "fig", Weight: 3}})
	fmt.Println("apple:", both.Weight("apple"), "fig:", both.Weight("fig"))

	// Add to one side: only the difference propagates.
	b.Push([]incremental.Delta[string]{{Record: "apple", Weight: 2}})
	fmt.Println("apple after:", both.Weight("apple"))
	// Output:
	// apple: 1 fig: 1
	// apple after: 2
}

func ExampleNewNoisyCountSink() {
	in := incremental.NewInput[string]()
	sink := incremental.NewNoisyCountSink[string](
		in,
		incremental.MapObservations[string]{"x": 3.0},
		[]string{"x"},
		0.5,
	)
	fmt.Printf("L1 before: %.1f\n", sink.L1())
	in.Push([]incremental.Delta[string]{{Record: "x", Weight: 2}})
	fmt.Printf("L1 after: %.1f\n", sink.L1())
	// Output:
	// L1 before: 3.0
	// L1 after: 1.0
}
