package check

import "camc/internal/core"

// The differential oracle lives in core (core.BufSizes, core.Reference,
// core.Verify) so every harness shares it. These aliases keep the names
// the standalone benchmark module calls.
var (
	// BufSizes is core.BufSizes.
	BufSizes = core.BufSizes
	// Reference is core.Reference.
	Reference = core.Reference
)
