package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promText is one Prometheus text exposition scraped from /metrics, keyed
// by series as printed (name plus label set).
type promText map[string]float64

func parseProm(text string) promText {
	p := promText{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p[line[:i]] = v
	}
	return p
}

// value returns an unlabelled series, 0 when absent.
func (p promText) value(series string) float64 { return p[series] }

// histQuantile estimates the q-quantile of an unlabelled histogram from
// its cumulative buckets, interpolating linearly inside the bucket that
// holds the rank (as Prometheus' histogram_quantile does). It returns 0
// for an empty or absent histogram.
func (p promText) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range p {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		bs = append(bs, bucket{bound, v})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	if total == 0 {
		return 0
	}
	rank := q * total
	lowerLe, lowerCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lowerLe // above the top bound: report the top bound
			}
			if b.cum == lowerCum {
				return b.le
			}
			return lowerLe + (b.le-lowerLe)*(rank-lowerCum)/(b.cum-lowerCum)
		}
		lowerLe, lowerCum = b.le, b.cum
	}
	return lowerLe
}
