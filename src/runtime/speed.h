// Umbrella header: the public API of SPEED.
//
// A minimal integration looks like:
//
//   sgx::Platform platform;                          // the machine
//   store::ResultStore store(platform);              // encrypted ResultStore
//   auto enclave = platform.create_enclave("my-app");
//   auto conn = store::connect_app(store, *enclave); // attested handshake
//   runtime::DedupRuntime rt(*enclave, std::move(conn.session_key),
//                            std::move(conn.transport));
//   rt.libraries().register_library("mylib", "1.0", code_bytes);
//
//   runtime::Deduplicable<Out(const In&)> fast_f(
//       rt, {"mylib", "1.0", "Out f(In)"}, f);       // line 1
//   Out out = fast_f(in);                            // line 2 — use as normal
#pragma once

#include "chunk/chunk_plan.h"
#include "chunk/chunker.h"
#include "chunk/manifest.h"
#include "mle/rce.h"
#include "mle/tag.h"
#include "net/channel.h"
#include "net/cluster.h"
#include "net/fault.h"
#include "net/handshake.h"
#include "net/secure_channel.h"
#include "net/store_link.h"
#include "runtime/adaptive.h"
#include "runtime/dedup_runtime.h"
#include "runtime/deduplicable.h"
#include "runtime/stream_session.h"
#include "serialize/function_descriptor.h"
#include "serialize/rendezvous.h"
#include "serialize/serde.h"
#include "sgx/enclave.h"
#include "sgx/trusted_library.h"
#include "store/access_control.h"
#include "store/inproc_cluster.h"
#include "store/replication.h"
#include "store/result_store.h"
#include "store/store_session.h"
