package rpc

// FrameLimit is frameLimit for the rpc_test tables: the largest frame a
// connection that negotiated modelSize may carry.
var FrameLimit = frameLimit
