// Package core binds the transport-agnostic DLM state machine
// (internal/protocol) to the discrete-event simulation plane: it
// implements overlay.Manager by keeping one protocol.Machine per peer in
// overlay.Peer.State and translating overlay callbacks (connect,
// disconnect, layer change, message delivery, tick) into machine calls.
// All protocol math lives in internal/protocol; this package owns only
// the plumbing and the population-level accounting.
package core

import "dlm/internal/protocol"

// Params are DLM's tunables; see protocol.Params for the field
// documentation.
type Params = protocol.Params

// DefaultParams returns the tuning used throughout the evaluation.
func DefaultParams() Params { return protocol.DefaultParams() }
