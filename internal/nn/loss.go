package nn

import (
	"fmt"
	"math"

	"buffalo/internal/tensor"
)

// CrossEntropyInto computes the mean softmax cross-entropy loss of logits
// [n x classes] against integer labels, and the gradient w.r.t. the logits
// (already divided by n, ready to backpropagate). scale multiplies both the
// loss and the gradient: micro-batch training passes |micro|/|batch| so that
// accumulated micro-batch gradients equal the full-batch gradient. probs is
// a caller-provided scratch of the logits' shape; the returned gradient IS
// probs (overwritten in place), so the hot paths pass an arena-backed matrix
// and allocate nothing.
func CrossEntropyInto(probs, logits *tensor.Matrix, labels []int32, scale float32) (float32, *tensor.Matrix, error) {
	n := logits.Rows
	if len(labels) != n {
		return 0, nil, fmt.Errorf("nn: %d labels for %d logit rows", len(labels), n)
	}
	if n == 0 {
		return 0, probs, nil
	}
	tensor.SoftmaxRowsInto(probs, logits)
	var loss float64
	for i := 0; i < n; i++ {
		l := labels[i]
		if l < 0 || int(l) >= logits.Cols {
			return 0, nil, fmt.Errorf("nn: label %d out of range [0,%d)", l, logits.Cols)
		}
		p := float64(probs.At(i, int(l)))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	loss /= float64(n)
	grad := probs // reuse: grad = (probs - onehot) * scale / n
	inv := scale / float32(n)
	for i := 0; i < n; i++ {
		row := grad.Row(i)
		row[labels[i]] -= 1
		for j := range row {
			row[j] *= inv
		}
	}
	return float32(loss) * scale, grad, nil
}

// Correct counts the rows whose argmax matches the label. Callers that sum
// over micro-batches add these counts: a fraction multiplied back by its row
// count can truncate below the count it came from.
func Correct(logits *tensor.Matrix, labels []int32) int {
	correct := 0
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if int32(best) == labels[i] {
			correct++
		}
	}
	return correct
}

// Accuracy reports the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Matrix, labels []int32) float64 {
	if logits.Rows == 0 {
		return 0
	}
	return float64(Correct(logits, labels)) / float64(logits.Rows)
}
