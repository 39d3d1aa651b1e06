package main

import (
	"math"
	"math/rand"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count; 0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// hdQuantile is the Harrell-Davis estimate of the p-quantile of xs: the
// mean of all order statistics weighted by a Beta((n+1)p, (n+1)(1-p))
// distribution. Per-cell latencies mix cells of very different sizes, so
// the single order statistic at p often sits at the edge of a group of
// heavy cells and jumps between neighbours from run to run; the weighted
// estimate moves only by their weights' share.
func hdQuantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var sum, prev float64
	for i := 1; i <= n; i++ {
		cur := incBeta(float64(i)/float64(n), a, b)
		sum += (cur - prev) * s[i-1]
		prev = cur
	}
	return sum
}

// incBeta is the regularized incomplete beta function I_x(a, b).
func incBeta(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the incomplete beta continued fraction by the modified
// Lentz method.
func betaCF(x, a, b float64) float64 {
	const tiny, eps = 1e-300, 1e-15
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 1000; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// fitExponent returns the least-squares slope of log(cost) against
// log(size): 1 for linear growth, 2 for quadratic.
func fitExponent(sizes, costs []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := float64(len(sizes))
	for i := range sizes {
		x, y := math.Log(sizes[i]), math.Log(costs[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// variantOf picks slot's input variant for a seed. Each block of
// variants consecutive slots takes every variant once, in an order the
// seed shuffles, so every seed runs the same mix of input sizes and a
// pass's host time does not depend on which variants the seed drew.
func variantOf(seed int64, variants, slot int) int {
	perm := rand.New(rand.NewSource(int64(mix(seed, slot/variants)))).Perm(variants)
	return perm[slot%variants]
}

// mix derives a well-spread 64-bit value from a seed and an index (a
// splitmix64 step), so neighbouring blocks draw independent orders.
func mix(seed int64, i int) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
