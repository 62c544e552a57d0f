package sched

import (
	"fmt"
	"strings"
)

// HalfAction is one half-interval of activity on a disk in the
// low-bandwidth sharing scheme of §3.2.3 (Figure 7).
type HalfAction struct {
	Interval int
	Half     int // 0 = first half, 1 = second half
	Disk     int
	Read     string   // subobject read during this half ("" = none)
	Xmit     []string // half-subobjects transmitted, e.g. "X0a", "Y0b"
}

// LowBandwidthPair simulates the delivery of two objects X and Y,
// each with B_Display = ½·B_Disk, sharing single disks per interval
// with stride 1 on d disks for n subobjects (§3.2.3): during the
// first half of each interval the disk reads X_i while transmitting
// X_ia; during the second half it reads Y_i while transmitting X_ib
// (from buffer) and Y_ia; Y_ib is buffered into the next interval.
// It also returns the extra buffering the scheme costs: the peak
// count of half-subobjects held at once.
//
// Each disk is effectively split into two half-bandwidth logical
// disks; an object needing 3/2·B_Disk would occupy exactly three such
// logical disks with no rounding waste.
func LowBandwidthPair(d, n int) ([]HalfAction, int, error) {
	if d <= 0 || n <= 0 {
		return nil, 0, fmt.Errorf("sched: low-bandwidth pair needs positive d and n")
	}
	var acts []HalfAction
	held, peak := 0, 0
	hold := func() {
		held++
		peak = max(peak, held)
	}
	// pending names the half-subobject buffered across the interval
	// boundary (Y(i-1)b at the start of interval i).
	pending := ""
	for t := 0; t < n; t++ {
		disk := t % d
		first := HalfAction{Interval: t, Half: 0, Disk: disk,
			Read: fmt.Sprintf("X%d", t),
			Xmit: []string{fmt.Sprintf("X%da", t)}}
		if pending != "" {
			// Y(t-1)b from buffer, released mid-interval.
			first.Xmit = append(first.Xmit, pending)
			held--
			pending = ""
		}
		acts = append(acts, first)
		// X t b is buffered for the second half.
		hold()
		second := HalfAction{Interval: t, Half: 1, Disk: disk,
			Read: fmt.Sprintf("Y%d", t),
			Xmit: []string{fmt.Sprintf("X%db", t), fmt.Sprintf("Y%da", t)}}
		held-- // X t b leaves the buffer as it transmits
		acts = append(acts, second)
		// Y t b is buffered across to the next interval.
		hold()
		pending = fmt.Sprintf("Y%db", t)
	}
	// Drain the final buffered half.
	if pending != "" {
		acts = append(acts, HalfAction{Interval: n, Half: 0, Disk: n % d,
			Xmit: []string{pending}})
		held--
	}
	if held != 0 {
		return nil, 0, fmt.Errorf("sched: %d half-subobjects left buffered", held)
	}
	return acts, peak, nil
}

// Figure7 renders the §3.2.3 table: one column per disk, one row per
// time interval, each cell listing the reads and transmissions of the
// two half-intervals, matching the paper's Figure 7.
func Figure7(d, intervals int) (string, error) {
	acts, _, err := LowBandwidthPair(d, intervals)
	if err != nil {
		return "", err
	}
	// cell[t][disk] collects lines.
	cells := make([][][]string, intervals+1)
	for t := range cells {
		cells[t] = make([][]string, d)
	}
	for _, a := range acts {
		if a.Interval > intervals {
			continue
		}
		lines := cells[a.Interval][a.Disk]
		if a.Read != "" {
			lines = append(lines, "Read "+a.Read)
		}
		for _, x := range a.Xmit {
			lines = append(lines, "Xmit "+x)
		}
		cells[a.Interval][a.Disk] = lines
	}
	const width = 12
	var b strings.Builder
	b.WriteString("Time")
	for disk := 0; disk < d; disk++ {
		b.WriteString(fmt.Sprintf(" | %-*s", width, fmt.Sprintf("Disk %d", disk)))
	}
	b.WriteByte('\n')
	for t := 0; t < intervals; t++ {
		maxLines := 1
		for _, lines := range cells[t] {
			if len(lines) > maxLines {
				maxLines = len(lines)
			}
		}
		for l := 0; l < maxLines; l++ {
			if l == 0 {
				b.WriteString(fmt.Sprintf("%4d", t+1))
			} else {
				b.WriteString("    ")
			}
			for disk := 0; disk < d; disk++ {
				cell := ""
				if l < len(cells[t][disk]) {
					cell = cells[t][disk][l]
				}
				b.WriteString(fmt.Sprintf(" | %-*s", width, cell))
			}
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}
