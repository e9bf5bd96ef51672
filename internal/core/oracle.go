package core

import (
	"fmt"
	"strings"

	"camc/internal/kernel"
)

// This file is the differential oracle: a deliberately naive,
// obviously-correct implementation of each collective's data semantics,
// computed sequentially on plain byte slices with two copies and no
// algorithmic cleverness whatsoever. Whatever schedule, tree, ring or
// degraded path the real algorithm took, its receive buffers must match
// these.

// BufSizes returns the send/receive buffer lengths for one rank of a
// p-rank communicator running kind with per-rank block size count.
func BufSizes(kind Kind, p int, count int64) (sendLen, recvLen int64, err error) {
	blocks := int64(p)
	switch kind {
	case KindScatter:
		return blocks * count, count, nil
	case KindGather:
		return count, blocks * count, nil
	case KindAlltoall, KindAllgather:
		return blocks * count, blocks * count, nil
	case KindBcast, KindReduce:
		return count, count, nil
	}
	return 0, 0, fmt.Errorf("core: unsupported kind %q", kind)
}

// Reference computes the expected receive buffer of every rank from a
// snapshot of the send buffers. sends[r] is rank r's send buffer (laid
// out per BufSizes). The returned slice has one entry per rank; a nil
// entry means MPI leaves that rank's receive buffer unspecified (e.g.
// non-roots in gather and reduce, the root in bcast), so the
// differential comparison must skip it.
func Reference(kind Kind, p int, count int64, root int, sends [][]byte) ([][]byte, error) {
	if len(sends) != p {
		return nil, fmt.Errorf("core: %d send snapshots for %d ranks", len(sends), p)
	}
	sendLen, recvLen, err := BufSizes(kind, p, count)
	if err != nil {
		return nil, err
	}
	for r, s := range sends {
		if int64(len(s)) != sendLen {
			return nil, fmt.Errorf("core: rank %d send snapshot is %d bytes, want %d", r, len(s), sendLen)
		}
	}
	exp := make([][]byte, p)
	fill := func(r int) []byte {
		exp[r] = make([]byte, recvLen)
		return exp[r]
	}
	switch kind {
	case KindScatter:
		// Block d of the root's send buffer lands in rank d's recv.
		for d := 0; d < p; d++ {
			copy(fill(d), sends[root][int64(d)*count:int64(d+1)*count])
		}
	case KindGather:
		// Rank s's send vector lands in block s of the root's recv.
		dst := fill(root)
		for s := 0; s < p; s++ {
			copy(dst[int64(s)*count:], sends[s][:count])
		}
	case KindAllgather:
		// Every rank ends with every rank's send vector, in rank order.
		for r := 0; r < p; r++ {
			dst := fill(r)
			for s := 0; s < p; s++ {
				copy(dst[int64(s)*count:], sends[s][:count])
			}
		}
	case KindAlltoall:
		// Block r of rank s's send buffer lands in block s of rank r's
		// recv buffer.
		for r := 0; r < p; r++ {
			dst := fill(r)
			for s := 0; s < p; s++ {
				copy(dst[int64(s)*count:], sends[s][int64(r)*count:int64(r+1)*count])
			}
		}
	case KindBcast:
		// The root's send vector lands in every non-root's recv; the
		// root's own recv buffer is untouched.
		for r := 0; r < p; r++ {
			if r == root {
				continue
			}
			copy(fill(r), sends[root][:count])
		}
	case KindReduce:
		// Byte-wise modular sum of every rank's send vector at the root
		// (the simulated kernel's Combine is a byte add).
		dst := fill(root)
		for s := 0; s < p; s++ {
			for i := int64(0); i < count; i++ {
				dst[i] += sends[s][i]
			}
		}
	default:
		return nil, fmt.Errorf("core: unsupported kind %q", kind)
	}
	return exp, nil
}

// DiffPayload compares a rank's observed receive buffer against the
// reference and returns a description of the first mismatch ("" on
// match). exp == nil (unspecified buffer) always matches.
func DiffPayload(rank int, got, exp []byte) string {
	if exp == nil {
		return ""
	}
	if len(got) != len(exp) {
		return fmt.Sprintf("rank %d: recv length %d, reference %d", rank, len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			return fmt.Sprintf("rank %d offset %d: got %#02x, reference %#02x", rank, i, got[i], exp[i])
		}
	}
	return ""
}

// Verify is the byte-level check every payload-carrying harness runs
// after a collective: each rank's receive buffer must match Reference
// over the send snapshots, and each send buffer must still hold its
// snapshot (the collective owns only Recv). mem(r) is rank r's address
// space; send[r] and recv[r] are its buffers.
func Verify(kind Kind, count int64, root int, sends [][]byte, mem func(r int) *kernel.Process, send, recv []kernel.Addr) error {
	exp, err := Reference(kind, len(sends), count, root, sends)
	if err != nil {
		return err
	}
	_, recvLen, _ := BufSizes(kind, len(sends), count)
	var diffs []string
	for r := range sends {
		if d := DiffPayload(r, mem(r).Bytes(recv[r], recvLen), exp[r]); d != "" {
			diffs = append(diffs, d)
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("core: differential mismatch vs reference executor: %s", strings.Join(diffs, "; "))
	}
	for r, s := range sends {
		if d := DiffPayload(r, mem(r).Bytes(send[r], int64(len(s))), s); d != "" {
			return fmt.Errorf("core: send buffer mutated: %s", d)
		}
	}
	return nil
}
