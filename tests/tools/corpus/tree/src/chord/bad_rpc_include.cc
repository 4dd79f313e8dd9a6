// Golden corpus: P2P009 — the simulator reaching into the live RPC stack.
#include "chord/ring.h"
#include "rpc/tcp_transport.h"
  #  include "rpc/frame.h"
// #include "rpc/message.h" in a line comment is silent.
/*
#include "rpc/node_service.h" inside a block comment is silent too.
*/
