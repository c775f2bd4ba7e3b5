// Tests for the network serving front end (src/net): framing, the typed
// wire codec, admission control, and the ServeServer/ServeClient pair.
//
// The contracts under test mirror docs/NETWORKING.md:
//  1. Framing integrity — every frame either round-trips bit-exactly or
//     surfaces a typed DataError; a corrupted length field is rejected from
//     the header alone (allocation-bomb guard), and a checksum mismatch is
//     always caught.
//  2. Admission semantics — queue overflow answers OVERLOADED immediately
//     (never a hang), token-bucket refill is deterministic under a fake
//     clock, and a saturating ingest class cannot crowd interactive queries
//     past their own queue bound.
//  3. Blast radius — for every net.*/admission.* fault point: a torn frame,
//     corrupt payload, failed socket op, or injected rejection affects
//     exactly one connection/request; the server and every other connection
//     keep serving.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include "core/query.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "net/admission.hpp"
#include "net/frame.hpp"
#include "net/serve_client.hpp"
#include "net/serve_server.hpp"
#include "net/socket_util.hpp"
#include "net/wire.hpp"
#include "scratch_dir.hpp"
#include "serve/persist/durable_store.hpp"
#include "serve/serve_engine.hpp"
#include "serve/table_store.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace wfbn {
namespace {

using net::AdmissionController;
using net::AdmissionOptions;
using net::BoundedQueue;
using net::ClientOptions;
using net::DecodedFrame;
using net::FrameDecoder;
using net::FrameKind;
using net::KeyWidth;
using net::NetError;
using net::Opcode;
using net::RequestClass;
using net::Response;
using net::ServeClient;
using net::ServeServer;
using net::ServerOptions;
using net::Status;
using net::TokenBucket;

PotentialTable build(const Dataset& data, std::size_t threads = 4) {
  WaitFreeBuilderOptions options;
  options.threads = threads;
  return WaitFreeBuilder(options).build(data);
}

WidePotentialTable wide_build(const Dataset& data, std::size_t threads = 4) {
  WaitFreeBuilderOptions options;
  options.threads = threads;
  return WideWaitFreeBuilder(options).build(data);
}

net::Request marginal_request(std::uint64_t id, std::vector<std::size_t> vars,
                              KeyWidth width = KeyWidth::kNarrow) {
  net::Request request;
  request.id = id;
  request.opcode = Opcode::kMarginal;
  request.width = width;
  request.query.kind = serve::QueryKind::kMarginal;
  request.query.variables = std::move(vars);
  return request;
}

net::Request conditional_request(std::uint64_t id,
                                 std::vector<std::size_t> vars,
                                 std::vector<Evidence> evidence,
                                 KeyWidth width = KeyWidth::kNarrow) {
  net::Request request;
  request.id = id;
  request.opcode = Opcode::kConditional;
  request.width = width;
  request.query.kind = serve::QueryKind::kConditional;
  request.query.variables = std::move(vars);
  request.query.evidence = std::move(evidence);
  return request;
}

net::Request pair_mi_request(std::uint64_t id, std::size_t i, std::size_t j,
                             KeyWidth width = KeyWidth::kNarrow) {
  net::Request request;
  request.id = id;
  request.opcode = Opcode::kPairMi;
  request.width = width;
  request.query.kind = serve::QueryKind::kPairMi;
  request.query.variables = {i, j};
  return request;
}

net::Request ingest_request(std::uint64_t id, const Dataset& batch,
                            KeyWidth width = KeyWidth::kNarrow) {
  net::Request request;
  request.id = id;
  request.opcode = Opcode::kIngest;
  request.width = width;
  request.ingest_samples = batch.sample_count();
  request.ingest_cardinalities = batch.cardinalities();
  request.ingest_cells.assign(batch.raw().begin(), batch.raw().end());
  return request;
}

net::Request admin_request(std::uint64_t id, Opcode op,
                           KeyWidth width = KeyWidth::kNarrow) {
  net::Request request;
  request.id = id;
  request.opcode = op;
  request.width = width;
  return request;
}

net::Request learn_request(std::uint64_t id,
                           serve::LearnAlgorithm algorithm =
                               serve::LearnAlgorithm::kCheng,
                           KeyWidth width = KeyWidth::kNarrow) {
  net::Request request;
  request.id = id;
  request.opcode = Opcode::kLearn;
  request.width = width;
  request.learn.algorithm = algorithm;
  request.learn.method = CiMethod::kMiThreshold;
  request.learn.mi_threshold = 0.015;
  request.learn.alpha = 0.05;
  request.learn.max_cutset_size = 4;
  request.learn.max_level = 2;
  request.learn.threads = 3;
  return request;
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(Frame, RoundTripsSingleFrame) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> bytes =
      net::encode_frame(FrameKind::kRequest, payload);
  ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes + payload.size());

  FrameDecoder decoder;
  decoder.feed(bytes);
  const std::optional<DecodedFrame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::kRequest);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.frames_decoded(), 1u);
}

TEST(Frame, ByteAtATimeAndCoalescedDeliveryAgree) {
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<std::uint8_t>> payloads;
  Xoshiro256 rng(0x11);
  for (int i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> payload(rng.bounded(300));
    for (std::uint8_t& b : payload) {
      b = static_cast<std::uint8_t>(rng.bounded(256));
    }
    net::append_frame(stream, FrameKind::kResponse, payload);
    payloads.push_back(std::move(payload));
  }

  FrameDecoder byte_wise;
  for (const std::uint8_t b : stream) byte_wise.feed(&b, 1);
  FrameDecoder coalesced;
  coalesced.feed(stream);

  for (const std::vector<std::uint8_t>& expected : payloads) {
    const auto a = byte_wise.next();
    const auto b = coalesced.next();
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->payload, expected);
    EXPECT_EQ(b->payload, expected);
  }
  EXPECT_FALSE(byte_wise.next().has_value());
  EXPECT_FALSE(coalesced.next().has_value());
}

TEST(Frame, BadMagicThrowsAndPoisons) {
  std::vector<std::uint8_t> bytes =
      net::encode_frame(FrameKind::kRequest, std::vector<std::uint8_t>{1});
  bytes[0] ^= 0xFF;
  FrameDecoder decoder;
  EXPECT_THROW(decoder.feed(bytes), DataError);
  EXPECT_TRUE(decoder.poisoned());
  const std::uint8_t more = 0;
  EXPECT_THROW(decoder.feed(&more, 1), DataError);
}

TEST(Frame, UnknownVersionAndKindRejected) {
  {
    std::vector<std::uint8_t> bytes =
        net::encode_frame(FrameKind::kRequest, std::vector<std::uint8_t>{});
    bytes[4] = 99;  // version field
    FrameDecoder decoder;
    EXPECT_THROW(decoder.feed(bytes), DataError);
  }
  {
    std::vector<std::uint8_t> bytes =
        net::encode_frame(FrameKind::kRequest, std::vector<std::uint8_t>{});
    bytes[5] = 7;  // kind field
    FrameDecoder decoder;
    EXPECT_THROW(decoder.feed(bytes), DataError);
  }
}

TEST(Frame, OversizedLengthRejectedFromHeaderAlone) {
  // A corrupted length field must be rejected before any payload-sized
  // allocation happens: construct a decoder with a tiny limit and hand it a
  // header claiming a huge payload — only the 20 header bytes ever exist.
  std::vector<std::uint8_t> bytes =
      net::encode_frame(FrameKind::kRequest, std::vector<std::uint8_t>{1, 2});
  const std::uint32_t huge = 0xFFFFFFF0u;
  std::memcpy(bytes.data() + 8, &huge, sizeof huge);  // payload_len field
  FrameDecoder decoder(1024);
  EXPECT_THROW(decoder.feed(bytes.data(), net::kFrameHeaderBytes), DataError);
}

TEST(Frame, PayloadBitFlipCaughtByChecksum) {
  std::vector<std::uint8_t> payload(64, 0xAB);
  std::vector<std::uint8_t> bytes =
      net::encode_frame(FrameKind::kRequest, payload);
  bytes[net::kFrameHeaderBytes + 13] ^= 0x04;
  FrameDecoder decoder;
  EXPECT_THROW(decoder.feed(bytes), DataError);
}

TEST(Frame, InjectedChecksumFaultForcesMismatch) {
  fault::ScopedFaultInjection guard;
  fault::arm(fault::Point::kNetFrameChecksum, 1);
  const std::vector<std::uint8_t> bytes =
      net::encode_frame(FrameKind::kRequest, std::vector<std::uint8_t>{1});
  FrameDecoder decoder;
  EXPECT_THROW(decoder.feed(bytes), DataError);
  EXPECT_EQ(fault::hits(fault::Point::kNetFrameChecksum), 1u);
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(Wire, RequestRoundTripsEveryOpcodeAtBothWidths) {
  const Dataset batch = generate_uniform(50, 6, 3, 0x77);
  for (const KeyWidth width : {KeyWidth::kNarrow, KeyWidth::kWide}) {
    const std::vector<net::Request> requests = {
        marginal_request(1, {0, 2, 5}, width),
        conditional_request(2, {1, 3}, {{0, 1}, {4, 2}}, width),
        pair_mi_request(3, 2, 4, width),
        ingest_request(4, batch, width),
        admin_request(5, Opcode::kVersion, width),
        admin_request(6, Opcode::kStats, width),
        admin_request(7, Opcode::kFlush, width),
    };
    for (const net::Request& request : requests) {
      const net::Request back =
          net::decode_request(net::encode_request(request));
      EXPECT_EQ(back.id, request.id);
      EXPECT_EQ(back.opcode, request.opcode);
      EXPECT_EQ(back.width, request.width);
      EXPECT_EQ(back.query.variables, request.query.variables);
      ASSERT_EQ(back.query.evidence.size(), request.query.evidence.size());
      for (std::size_t i = 0; i < back.query.evidence.size(); ++i) {
        EXPECT_EQ(back.query.evidence[i].variable,
                  request.query.evidence[i].variable);
        EXPECT_EQ(back.query.evidence[i].state,
                  request.query.evidence[i].state);
      }
      EXPECT_EQ(back.ingest_samples, request.ingest_samples);
      EXPECT_EQ(back.ingest_cardinalities, request.ingest_cardinalities);
      EXPECT_EQ(back.ingest_cells, request.ingest_cells);
    }
  }
}

TEST(Wire, IngestRequestRebuildsIdenticalDataset) {
  const Dataset batch = generate_uniform(200, 8, 2, 0x78);
  const net::Request back =
      net::decode_request(net::encode_request(ingest_request(9, batch)));
  const Dataset rebuilt = back.ingest_dataset();
  EXPECT_EQ(rebuilt.sample_count(), batch.sample_count());
  EXPECT_EQ(rebuilt.cardinalities(), batch.cardinalities());
  EXPECT_TRUE(std::equal(rebuilt.raw().begin(), rebuilt.raw().end(),
                         batch.raw().begin()));
}

TEST(Wire, ResponseRoundTripsEveryShape) {
  Response query_ok;
  query_ok.id = 11;
  query_ok.opcode = Opcode::kConditional;
  query_ok.version = 7;
  query_ok.cache_hit = true;
  query_ok.values = {0.25, 0.75};

  Response error;
  error.id = 12;
  error.opcode = Opcode::kMarginal;
  error.status = Status::kError;
  error.error = "zero-support evidence";

  Response overloaded;
  overloaded.id = 13;
  overloaded.opcode = Opcode::kIngest;
  overloaded.status = Status::kOverloaded;
  overloaded.retry_after_ms = 25;
  overloaded.error = "overloaded";

  Response ingest_ok;
  ingest_ok.id = 14;
  ingest_ok.opcode = Opcode::kIngest;
  ingest_ok.published_version = 3;
  ingest_ok.batch_rows = 1000;

  Response version_ok;
  version_ok.id = 15;
  version_ok.opcode = Opcode::kVersion;
  version_ok.served_version = 9;
  version_ok.durable_version = 8;

  Response stats_ok;
  stats_ok.id = 16;
  stats_ok.opcode = Opcode::kStats;
  stats_ok.served_version = 9;
  stats_ok.cache_hits = 100;
  stats_ok.cache_misses = 20;
  stats_ok.admitted = 115;
  stats_ok.rejected = 5;

  Response flush_ok;
  flush_ok.id = 17;
  flush_ok.opcode = Opcode::kFlush;
  flush_ok.flushed = true;
  flush_ok.served_version = 9;
  flush_ok.durable_version = 9;

  for (const Response& response : {query_ok, error, overloaded, ingest_ok,
                                   version_ok, stats_ok, flush_ok}) {
    const Response back =
        net::decode_response(net::encode_response(response));
    EXPECT_EQ(back.id, response.id);
    EXPECT_EQ(back.opcode, response.opcode);
    EXPECT_EQ(back.status, response.status);
    EXPECT_EQ(back.retry_after_ms, response.retry_after_ms);
    EXPECT_EQ(back.error, response.error);
    EXPECT_EQ(back.version, response.version);
    EXPECT_EQ(back.cache_hit, response.cache_hit);
    EXPECT_TRUE(bytes_equal(back.values, response.values));
    EXPECT_EQ(back.published_version, response.published_version);
    EXPECT_EQ(back.batch_rows, response.batch_rows);
    EXPECT_EQ(back.served_version, response.served_version);
    EXPECT_EQ(back.durable_version, response.durable_version);
    EXPECT_EQ(back.cache_hits, response.cache_hits);
    EXPECT_EQ(back.cache_misses, response.cache_misses);
    EXPECT_EQ(back.admitted, response.admitted);
    EXPECT_EQ(back.rejected, response.rejected);
    EXPECT_EQ(back.flushed, response.flushed);
  }
}

TEST(Wire, MalformedRequestsThrowTyped) {
  // Unknown opcode.
  {
    std::vector<std::uint8_t> payload =
        net::encode_request(marginal_request(1, {0}));
    payload[8] = 99;
    EXPECT_THROW((void)net::decode_request(payload), DataError);
  }
  // Unknown width.
  {
    std::vector<std::uint8_t> payload =
        net::encode_request(marginal_request(1, {0}));
    payload[9] = 9;
    EXPECT_THROW((void)net::decode_request(payload), DataError);
  }
  // Truncated body.
  {
    const std::vector<std::uint8_t> payload =
        net::encode_request(marginal_request(1, {0, 1, 2}));
    EXPECT_THROW((void)net::decode_request(
                     std::span(payload.data(), payload.size() - 3)),
                 DataError);
  }
  // Trailing bytes.
  {
    std::vector<std::uint8_t> payload =
        net::encode_request(marginal_request(1, {0}));
    payload.push_back(0);
    EXPECT_THROW((void)net::decode_request(payload), DataError);
  }
  // Count field larger than the remaining bytes (the allocation bomb): a
  // variable count of ~1 billion in a 20-byte payload must be rejected by
  // arithmetic, not by attempting the reserve.
  {
    std::vector<std::uint8_t> payload =
        net::encode_request(marginal_request(1, {0}));
    const std::uint32_t bomb = 0x3FFFFFFFu;
    std::memcpy(payload.data() + 12, &bomb, sizeof bomb);
    EXPECT_THROW((void)net::decode_request(payload), DataError);
  }
  // Pair-MI with the wrong variable count.
  {
    net::Request request = pair_mi_request(1, 0, 1);
    request.query.variables = {0, 1};
    std::vector<std::uint8_t> payload = net::encode_request(request);
    // Rewrite the count to 2 variables but truncate one off: handled above;
    // here instead encode a marginal-shaped body under the pair-MI opcode.
    payload[8] = static_cast<std::uint8_t>(Opcode::kPairMi);
    const std::uint32_t one = 1;
    std::memcpy(payload.data() + 12, &one, sizeof one);
    EXPECT_THROW((void)net::decode_request(
                     std::span(payload.data(), payload.size() - 4)),
                 DataError);
  }
  // Ingest cell count exceeding the payload.
  {
    const Dataset batch = generate_uniform(10, 4, 2, 0x79);
    std::vector<std::uint8_t> payload =
        net::encode_request(ingest_request(1, batch));
    const std::uint64_t bomb = 1u << 30;
    std::memcpy(payload.data() + 12, &bomb, sizeof bomb);  // samples field
    EXPECT_THROW((void)net::decode_request(payload), DataError);
  }
}

TEST(Wire, ClassOfMapsEveryOpcode) {
  EXPECT_EQ(net::class_of(Opcode::kMarginal), RequestClass::kInteractive);
  EXPECT_EQ(net::class_of(Opcode::kConditional), RequestClass::kInteractive);
  EXPECT_EQ(net::class_of(Opcode::kPairMi), RequestClass::kInteractive);
  EXPECT_EQ(net::class_of(Opcode::kIngest), RequestClass::kIngest);
  EXPECT_EQ(net::class_of(Opcode::kVersion), RequestClass::kAdmin);
  EXPECT_EQ(net::class_of(Opcode::kStats), RequestClass::kAdmin);
  EXPECT_EQ(net::class_of(Opcode::kFlush), RequestClass::kAdmin);
  EXPECT_EQ(net::class_of(Opcode::kLearn), RequestClass::kAdmin);
}

TEST(Wire, LearnRequestRoundTripsBothWidths) {
  for (const KeyWidth width : {KeyWidth::kNarrow, KeyWidth::kWide}) {
    const net::Request request =
        learn_request(21, serve::LearnAlgorithm::kPcStable, width);
    const net::Request back = net::decode_request(net::encode_request(request));
    EXPECT_EQ(back.id, request.id);
    EXPECT_EQ(back.opcode, Opcode::kLearn);
    EXPECT_EQ(back.width, width);
    EXPECT_EQ(back.learn.algorithm, request.learn.algorithm);
    EXPECT_EQ(back.learn.method, request.learn.method);
    EXPECT_EQ(back.learn.mi_threshold, request.learn.mi_threshold);
    EXPECT_EQ(back.learn.alpha, request.learn.alpha);
    EXPECT_EQ(back.learn.max_cutset_size, request.learn.max_cutset_size);
    EXPECT_EQ(back.learn.max_level, request.learn.max_level);
    EXPECT_EQ(back.learn.threads, request.learn.threads);
    // The cancel token is process-local and never crosses the wire.
    EXPECT_EQ(back.learn.cancel, nullptr);
  }
}

TEST(Wire, MalformedLearnRequestsThrowTyped) {
  // Body layout after the 12-byte header:
  //   u8 algorithm | u8 method | u16 reserved | f64 mi_threshold | f64 alpha
  //   | u32 max_cutset_size | u32 max_level | u32 threads
  const std::vector<std::uint8_t> good =
      net::encode_request(learn_request(22));
  ASSERT_NO_THROW((void)net::decode_request(good));

  const auto patched = [&](std::size_t offset, const void* bytes,
                           std::size_t len) {
    std::vector<std::uint8_t> payload = good;
    std::memcpy(payload.data() + offset, bytes, len);
    return payload;
  };
  const std::uint8_t bad_algorithm = 9;
  EXPECT_THROW((void)net::decode_request(patched(12, &bad_algorithm, 1)),
               DataError);
  const std::uint8_t bad_method = 7;
  EXPECT_THROW((void)net::decode_request(patched(13, &bad_method, 1)),
               DataError);
  const double nan_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)net::decode_request(patched(16, &nan_threshold, 8)),
               DataError);
  const double zero_alpha = 0.0;  // alpha must lie strictly inside (0, 1)
  EXPECT_THROW((void)net::decode_request(patched(24, &zero_alpha, 8)),
               DataError);
  const std::uint32_t zero_cutset = 0;
  EXPECT_THROW((void)net::decode_request(patched(32, &zero_cutset, 4)),
               DataError);
  const std::uint32_t zero_threads = 0;
  EXPECT_THROW((void)net::decode_request(patched(40, &zero_threads, 4)),
               DataError);
  const std::uint32_t too_many_threads = 65;  // wire cap, pre-clamp
  EXPECT_THROW((void)net::decode_request(patched(40, &too_many_threads, 4)),
               DataError);
  // Truncated body and trailing bytes.
  EXPECT_THROW(
      (void)net::decode_request(std::span(good.data(), good.size() - 2)),
      DataError);
  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_THROW((void)net::decode_request(trailing), DataError);
}

TEST(Wire, LearnResponseRoundTripsEdgeLists) {
  Response learn_ok;
  learn_ok.id = 23;
  learn_ok.opcode = Opcode::kLearn;
  learn_ok.version = 5;
  learn_ok.learn_nodes = 8;
  learn_ok.learn_skeleton = {{0, 1}, {1, 2}, {2, 7}};
  learn_ok.learn_edges = {{1, 0}, {1, 2}};
  learn_ok.learn_ci_tests = 123;
  learn_ok.learn_seconds = 0.75;
  const Response back =
      net::decode_response(net::encode_response(learn_ok));
  EXPECT_EQ(back.id, learn_ok.id);
  EXPECT_EQ(back.opcode, Opcode::kLearn);
  EXPECT_EQ(back.status, Status::kOk);
  EXPECT_EQ(back.version, learn_ok.version);
  EXPECT_EQ(back.learn_nodes, learn_ok.learn_nodes);
  EXPECT_EQ(back.learn_skeleton, learn_ok.learn_skeleton);
  EXPECT_EQ(back.learn_edges, learn_ok.learn_edges);
  EXPECT_EQ(back.learn_ci_tests, learn_ok.learn_ci_tests);
  EXPECT_EQ(back.learn_seconds, learn_ok.learn_seconds);

  // An edge-count bomb is rejected by arithmetic, not by the reserve.
  std::vector<std::uint8_t> payload = net::encode_response(learn_ok);
  const std::uint32_t bomb = 0x2FFFFFFFu;
  // Skeleton count sits after id|op|status|retry|version|nodes|ci|seconds.
  std::memcpy(payload.data() + 8 + 1 + 1 + 2 + 8 + 4 + 8 + 8, &bomb,
              sizeof bomb);
  EXPECT_THROW((void)net::decode_response(payload), DataError);
}

// ---------------------------------------------------------------------------
// Frame-decoder fuzz: random + bit-flipped streams, both key widths
// ---------------------------------------------------------------------------

/// Oracle for one byte stream: the decoder either yields frames (whose
/// payloads then go through decode_request → valid request or DataError) or
/// throws DataError. It must never crash and never buffer past the payload
/// limit.
void fuzz_one_stream(std::span<const std::uint8_t> stream,
                     std::size_t max_payload, std::size_t chunk) {
  FrameDecoder decoder(max_payload);
  std::size_t offset = 0;
  try {
    while (offset < stream.size()) {
      const std::size_t take = std::min(chunk, stream.size() - offset);
      decoder.feed(stream.data() + offset, take);
      offset += take;
      EXPECT_LE(decoder.pending_bytes(), max_payload);
      while (std::optional<DecodedFrame> frame = decoder.next()) {
        try {
          (void)net::decode_request(frame->payload);
        } catch (const DataError&) {
          // A clean per-request error is a valid outcome.
        }
      }
    }
  } catch (const DataError&) {
    EXPECT_TRUE(decoder.poisoned());
  }
}

TEST(FrameFuzz, RandomAndBitFlippedStreams200Seeds) {
  constexpr std::size_t kMaxPayload = 1u << 16;
  const Dataset small_batch = generate_uniform(8, 4, 2, 0x90);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    const KeyWidth width =
        rng.bounded(2) == 0 ? KeyWidth::kNarrow : KeyWidth::kWide;

    // A well-formed stream of frames over the full opcode mix...
    std::vector<std::uint8_t> stream;
    const std::size_t frames = 1 + rng.bounded(4);
    for (std::size_t f = 0; f < frames; ++f) {
      net::Request request;
      switch (rng.bounded(5)) {
        case 0: request = marginal_request(f, {0, 1}, width); break;
        case 1:
          request = conditional_request(f, {0}, {{1, 0}}, width);
          break;
        case 2: request = pair_mi_request(f, 0, 2, width); break;
        case 3: request = ingest_request(f, small_batch, width); break;
        default: request = admin_request(f, Opcode::kStats, width); break;
      }
      net::append_frame(stream, FrameKind::kRequest,
                        net::encode_request(request));
    }

    if (seed % 2 == 0) {
      // ...with random bit flips anywhere (header, length, payload),
      const std::size_t flips = 1 + rng.bounded(8);
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t at = rng.bounded(stream.size());
        stream[at] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
      }
    } else {
      // ...or replaced by pure noise / truncated garbage.
      const std::size_t len = 1 + rng.bounded(512);
      stream.resize(len);
      for (std::uint8_t& b : stream) {
        b = static_cast<std::uint8_t>(rng.bounded(256));
      }
    }
    const std::size_t chunk = 1 + rng.bounded(64);
    fuzz_one_stream(stream, kMaxPayload, chunk);
  }
}

// ---------------------------------------------------------------------------
// Admission control semantics
// ---------------------------------------------------------------------------

TEST(TokenBucket, DeterministicRefillUnderFakeClock) {
  TokenBucket bucket(10.0, 2.0, 0);  // 10 tokens/s, burst 2, t=0

  EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_FALSE(bucket.try_acquire(0));  // burst exhausted
  EXPECT_NEAR(static_cast<double>(bucket.next_token_delay_ns()), 1e8,
              1e3);  // one token at 10/s = 100ms

  // 100ms later exactly one token has refilled.
  EXPECT_TRUE(bucket.try_acquire(100'000'000));
  EXPECT_FALSE(bucket.try_acquire(100'000'000));

  // 150ms more = 1.5 tokens: one acquire succeeds, the next fails at 0.5.
  EXPECT_TRUE(bucket.try_acquire(250'000'000));
  EXPECT_FALSE(bucket.try_acquire(250'000'000));
  EXPECT_NEAR(static_cast<double>(bucket.next_token_delay_ns()), 5e7, 1e3);

  // A long idle stretch caps at the burst, never beyond.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(bucket.try_acquire(10'000'000'000ULL));
  }
  EXPECT_FALSE(bucket.try_acquire(10'000'000'000ULL));

  // A regressing clock is clamped, not misread as a huge refill.
  EXPECT_FALSE(bucket.try_acquire(9'000'000'000ULL));
}

TEST(TokenBucket, ZeroRateMeansUnlimited) {
  TokenBucket bucket(0.0, 0.0, 0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_EQ(bucket.next_token_delay_ns(), 0u);
}

TEST(BoundedQueue, OverflowFailsImmediatelyNeverHangs) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  const auto before = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.try_push(3));  // full: immediate false
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            100);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(*queue.pop(), 1);
  EXPECT_TRUE(queue.try_push(3));
}

TEST(BoundedQueue, CloseWakesBlockedPop) {
  BoundedQueue<int> queue(4);
  std::thread popper([&] {
    const std::optional<int> item = queue.pop();
    EXPECT_FALSE(item.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  popper.join();
}

TEST(Admission, RateLimitRejectsWithComputedRetryHint) {
  AdmissionOptions options;
  options.per_class[static_cast<std::size_t>(RequestClass::kAdmin)] = {
      .queue_capacity = 4, .rate_per_sec = 10, .burst = 1};
  AdmissionController controller(options);

  EXPECT_TRUE(controller.admit(RequestClass::kAdmin, 0).admitted);
  const net::AdmissionDecision rejected =
      controller.admit(RequestClass::kAdmin, 0);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reason, net::RejectReason::kRateLimited);
  EXPECT_EQ(rejected.retry_after_ms, 100);  // (1 token)/(10/s) = 100ms

  // The fake clock advances past the refill: admitted again.
  EXPECT_TRUE(controller.admit(RequestClass::kAdmin, 150'000'000).admitted);

  const net::AdmissionStats stats = controller.stats();
  EXPECT_EQ(stats.admitted[static_cast<std::size_t>(RequestClass::kAdmin)],
            2u);
  EXPECT_EQ(
      stats.rejected_rate[static_cast<std::size_t>(RequestClass::kAdmin)],
      1u);
}

TEST(Admission, DisabledAdmitsEverything) {
  AdmissionOptions options;
  options.enabled = false;
  options.per_class[0] = {.queue_capacity = 1, .rate_per_sec = 0.001,
                          .burst = 1};
  AdmissionController controller(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(controller.admit(RequestClass::kInteractive, 0).admitted);
  }
}

TEST(Admission, InjectedRejectForcesOverloadPath) {
  fault::ScopedFaultInjection guard;
  fault::arm(fault::Point::kAdmissionReject, 2);
  AdmissionController controller;
  EXPECT_TRUE(controller.admit(RequestClass::kInteractive, 0).admitted);
  const net::AdmissionDecision d = controller.admit(RequestClass::kInteractive, 0);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, net::RejectReason::kInjected);
  EXPECT_TRUE(controller.admit(RequestClass::kInteractive, 0).admitted);
  EXPECT_EQ(controller.stats().rejected_injected[0], 1u);
}

TEST(Admission, QueueFullAccountingConvertsAdmitToRejection) {
  AdmissionController controller;
  EXPECT_TRUE(controller.admit(RequestClass::kIngest, 0).admitted);
  const std::uint16_t retry =
      controller.note_queue_full(RequestClass::kIngest);
  EXPECT_GT(retry, 0);
  const net::AdmissionStats stats = controller.stats();
  EXPECT_EQ(stats.admitted[static_cast<std::size_t>(RequestClass::kIngest)],
            0u);
  EXPECT_EQ(stats.rejected_queue_full[static_cast<std::size_t>(
                RequestClass::kIngest)],
            1u);
}

// ---------------------------------------------------------------------------
// Server end-to-end
// ---------------------------------------------------------------------------

/// One live narrow-key server over a fresh store; shared by the E2E tests.
struct ServerFixture {
  explicit ServerFixture(ServerOptions options = {},
                         std::size_t rows = 3000)
      : data(generate_uniform(rows, 8, 2, 0xE1)),
        store(build(data)),
        engine(store),
        pool(4),
        server(engine, pool, std::move(options)) {
    server.start();
  }

  ClientOptions client_options() const {
    ClientOptions options;
    options.port = server.port();
    return options;
  }

  Dataset data;
  serve::TableStore store;
  serve::ServeEngine engine;
  ThreadPool pool;
  ServeServer server;
};

TEST(ServeServer, QueriesMatchDirectEngineBitForBit) {
  ServerFixture fx;
  ServeClient client(fx.client_options());
  const QueryEngine reference(fx.store.current()->table(), 1);

  {
    const std::vector<std::size_t> vars = {0, 3};
    const Response r = client.call(marginal_request(1, vars));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.id, 1u);
    EXPECT_EQ(r.version, 1u);
    EXPECT_TRUE(bytes_equal(r.values, reference.marginal(vars)));
  }
  {
    const std::vector<std::size_t> vars = {2};
    const std::vector<Evidence> evidence = {{1, 0}};
    const Response r = client.call(conditional_request(2, vars, evidence));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_TRUE(
        bytes_equal(r.values, reference.conditional(vars, evidence)));
  }
  {
    const Response r = client.call(pair_mi_request(3, 0, 7));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    ASSERT_EQ(r.values.size(), 1u);
    const serve::ServeResult direct = fx.engine.pair_mi(0, 7);
    EXPECT_EQ(r.values[0], direct.values[0]);
  }
}

TEST(ServeServer, IngestPublishesAndQueriesSeeNewVersion) {
  ServerFixture fx;
  ServeClient client(fx.client_options());

  const Dataset batch = generate_uniform(500, 8, 2, 0xE2);
  const Response ingest = client.call(ingest_request(10, batch));
  ASSERT_EQ(ingest.status, Status::kOk) << ingest.error;
  EXPECT_EQ(ingest.published_version, 2u);
  EXPECT_EQ(ingest.batch_rows, 500u);

  const Response version = client.call(admin_request(11, Opcode::kVersion));
  ASSERT_EQ(version.status, Status::kOk);
  EXPECT_EQ(version.served_version, 2u);

  const std::vector<std::size_t> vars = {1};
  const Response query = client.call(marginal_request(12, vars));
  ASSERT_EQ(query.status, Status::kOk);
  EXPECT_EQ(query.version, 2u);
  EXPECT_TRUE(bytes_equal(
      query.values,
      QueryEngine(fx.store.current()->table(), 1).marginal(vars)));
}

TEST(ServeServer, PipelinedRequestsAllAnswered) {
  ServerFixture fx;
  ServeClient client(fx.client_options());
  constexpr std::uint64_t kRequests = 64;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    client.send(marginal_request(i, {i % 8}));
  }
  std::vector<bool> seen(kRequests, false);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const Response r = client.receive();
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    ASSERT_LT(r.id, kRequests);
    EXPECT_FALSE(seen[r.id]);
    seen[r.id] = true;
  }
  EXPECT_EQ(client.in_flight(), 0u);
}

TEST(ServeServer, ManyConcurrentClients) {
  ServerFixture fx;
  constexpr std::size_t kClients = 8;
  constexpr std::uint64_t kPerClient = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        ServeClient client(fx.client_options());
        for (std::uint64_t i = 0; i < kPerClient; ++i) {
          const Response r =
              client.call(marginal_request(c * 1000 + i, {(c + i) % 8}));
          if (r.status != Status::kOk || r.values.empty()) {
            failures.fetch_add(1);
            return;
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const net::ServerStats stats = fx.server.stats();
  EXPECT_GE(stats.requests_decoded, kClients * kPerClient);
}

TEST(ServeServer, WidthMismatchIsBadRequestNotDisconnect) {
  ServerFixture fx;
  ServeClient client(fx.client_options());
  const Response r = client.call(marginal_request(1, {0}, KeyWidth::kWide));
  EXPECT_EQ(r.status, Status::kBadRequest);
  // Same connection still serves.
  const Response ok = client.call(marginal_request(2, {0}));
  EXPECT_EQ(ok.status, Status::kOk);
}

TEST(ServeServer, MalformedPayloadIsBadRequestConnectionSurvives) {
  ServerFixture fx;
  ServeClient client(fx.client_options());

  // A frame whose payload passes the checksum but is not a valid request.
  std::vector<std::uint8_t> payload =
      net::encode_request(marginal_request(7, {0}));
  payload[8] = 42;  // invalid opcode
  net::UniqueFd raw = net::connect_tcp("127.0.0.1", fx.server.port(), 5000);
  const std::vector<std::uint8_t> frame =
      net::encode_frame(FrameKind::kRequest, payload);
  ASSERT_EQ(::write(raw.get(), frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  FrameDecoder decoder;
  std::optional<DecodedFrame> reply;
  while (!reply.has_value()) {
    std::uint8_t buf[4096];
    const ssize_t n = ::read(raw.get(), buf, sizeof buf);
    ASSERT_GT(n, 0);
    decoder.feed(buf, static_cast<std::size_t>(n));
    reply = decoder.next();
  }
  const Response r = net::decode_response(reply->payload);
  EXPECT_EQ(r.status, Status::kBadRequest);
  EXPECT_EQ(r.id, 7u);  // id scraped from the malformed payload

  // The server and unrelated connections are untouched.
  const Response ok = client.call(marginal_request(8, {0}));
  EXPECT_EQ(ok.status, Status::kOk);
  EXPECT_GE(fx.server.stats().bad_requests, 1u);
}

TEST(ServeServer, TornFrameKillsOnlyThatConnection) {
  ServerFixture fx;
  ServeClient healthy(fx.client_options());

  // Garbage bytes: the decoder sees a bad magic and the server must close
  // exactly that connection.
  {
    net::UniqueFd raw = net::connect_tcp("127.0.0.1", fx.server.port(), 5000);
    const char garbage[] = "this is not a wfbn frame at all............";
    ASSERT_GT(::write(raw.get(), garbage, sizeof garbage), 0);
    std::uint8_t buf[16];
    const ssize_t n = ::read(raw.get(), buf, sizeof buf);  // blocks until close
    EXPECT_EQ(n, 0);  // clean EOF from the server side
  }
  // A corrupted payload (checksum mismatch) likewise.
  {
    std::vector<std::uint8_t> frame = net::encode_frame(
        FrameKind::kRequest, net::encode_request(marginal_request(1, {0})));
    frame.back() ^= 0xFF;
    net::UniqueFd raw = net::connect_tcp("127.0.0.1", fx.server.port(), 5000);
    ASSERT_EQ(::write(raw.get(), frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    std::uint8_t buf[16];
    EXPECT_EQ(::read(raw.get(), buf, sizeof buf), 0);
  }

  const Response ok = healthy.call(marginal_request(2, {1}));
  EXPECT_EQ(ok.status, Status::kOk);
  EXPECT_GE(fx.server.stats().connections_failed, 2u);
}

TEST(WideServeServer, EndToEndAtWideKeys) {
  const Dataset data = generate_chain_correlated(2000, 100, 2, 0.8, 0xE5);
  serve::WideTableStore store(wide_build(data));
  serve::WideServeEngine engine(store);
  ThreadPool pool(4);
  net::WideServeServer server(engine, pool);
  server.start();

  ClientOptions options;
  options.port = server.port();
  ServeClient client(options);

  const std::vector<std::size_t> vars = {62, 63};
  const Response marginal =
      client.call(marginal_request(1, vars, KeyWidth::kWide));
  ASSERT_EQ(marginal.status, Status::kOk) << marginal.error;
  EXPECT_TRUE(bytes_equal(
      marginal.values,
      WideQueryEngine(store.current()->table(), 1).marginal(vars)));

  const Response mi = client.call(pair_mi_request(2, 0, 99, KeyWidth::kWide));
  ASSERT_EQ(mi.status, Status::kOk) << mi.error;
  ASSERT_EQ(mi.values.size(), 1u);

  // Narrow request against the wide server: explicit BAD_REQUEST.
  const Response mismatch = client.call(marginal_request(3, {0}));
  EXPECT_EQ(mismatch.status, Status::kBadRequest);
}

TEST(ServeServer, DurableStoreIngestAndFlushOverNetwork) {
  const testing_support::ScratchDir scratch("wfbn_net_durable");
  const std::filesystem::path& dir = scratch.path();

  const Dataset base = generate_uniform(1000, 8, 2, 0xE6);
  serve::persist::DurableTableStore durable(dir, build(base));
  serve::ServeEngine engine(durable.store());
  ThreadPool pool(4);
  ServeServer server(engine, pool, {}, &durable);
  server.start();

  ClientOptions options;
  options.port = server.port();
  ServeClient client(options);

  const Dataset batch = generate_uniform(400, 8, 2, 0xE7);
  const Response ingest = client.call(ingest_request(1, batch));
  ASSERT_EQ(ingest.status, Status::kOk) << ingest.error;
  EXPECT_EQ(ingest.published_version, 2u);

  const Response flush = client.call(admin_request(2, Opcode::kFlush));
  ASSERT_EQ(flush.status, Status::kOk) << flush.error;
  EXPECT_TRUE(flush.flushed);
  EXPECT_EQ(flush.served_version, 2u);
  EXPECT_EQ(flush.durable_version, 2u);

  const Response query = client.call(marginal_request(3, {4}));
  ASSERT_EQ(query.status, Status::kOk);
  EXPECT_EQ(query.version, 2u);
}

TEST(ServeServer, LearnServedAgainstDurableStoreWhileQueriesFlow) {
  // The acceptance scenario: a LEARN job runs over the network against a
  // live DurableTableStore while a second client's interactive queries keep
  // being answered — learn occupies only the admin dispatcher, and its pool
  // is clamped to options.learn_max_threads.
  const testing_support::ScratchDir scratch("wfbn_net_learn");
  const std::filesystem::path& dir = scratch.path();

  const Dataset data = generate_chain_correlated(20000, 8, 2, 0.8, 0xEA);
  serve::persist::DurableTableStore durable(dir, build(data));
  serve::ServeEngine engine(durable.store());
  ThreadPool pool(4);
  ServerOptions options;
  options.learn_max_threads = 2;
  ServeServer server(engine, pool, options, &durable);
  server.start();

  ClientOptions client_options;
  client_options.port = server.port();
  ServeClient learner(client_options);
  ServeClient querier(client_options);

  // Ask for far more workers than the server allows; the clamp (not a
  // rejection) is the contract for an over-eager admin client.
  net::Request request = learn_request(1);
  request.learn.threads = 64;
  learner.send(request);

  // Interactive queries are answered while the learn is in flight (or at
  // worst queued behind nothing — they use a different dispatcher).
  for (std::uint64_t i = 0; i < 16; ++i) {
    const Response r = querier.call(marginal_request(100 + i, {i % 8}));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
  }

  const Response learned = learner.receive(60000);
  ASSERT_EQ(learned.status, Status::kOk) << learned.error;
  EXPECT_EQ(learned.id, 1u);
  EXPECT_EQ(learned.version, 1u);  // stamped with the snapshot it pinned
  EXPECT_EQ(learned.learn_nodes, 8u);
  EXPECT_FALSE(learned.learn_skeleton.empty());
  EXPECT_FALSE(learned.learn_edges.empty());
  EXPECT_GT(learned.learn_ci_tests, 0u);

  // The wire answer matches a direct in-process learn on the same snapshot
  // edge for edge (determinism across pool widths covers the clamp).
  serve::LearnRequest direct;
  direct.algorithm = serve::LearnAlgorithm::kCheng;
  direct.mi_threshold = request.learn.mi_threshold;
  direct.max_cutset_size = request.learn.max_cutset_size;
  direct.threads = 2;
  const serve::LearnedStructure reference = engine.learn_structure(direct);
  EXPECT_EQ(learned.learn_skeleton, reference.skeleton_edges);
  EXPECT_EQ(learned.learn_edges, reference.directed_edges);

  // A malformed learn job (alpha outside (0,1)) is a clean BAD_REQUEST on a
  // connection that keeps serving.
  net::Request bad = learn_request(2);
  bad.learn.alpha = 1.5;  // encoding is permissive; the decoder validates
  learner.send(bad);
  const Response rejected = learner.receive(30000);
  EXPECT_EQ(rejected.status, Status::kBadRequest);
  const Response still_ok = learner.call(admin_request(3, Opcode::kVersion));
  EXPECT_EQ(still_ok.status, Status::kOk);
}

// ---------------------------------------------------------------------------
// Admission over the network
// ---------------------------------------------------------------------------

TEST(ServeServer, IngestFloodGetsOverloadedQueriesKeepFlowing) {
  ServerOptions options;
  options.admission.per_class[static_cast<std::size_t>(
      RequestClass::kIngest)] = {.queue_capacity = 2, .rate_per_sec = 0,
                                 .burst = 0};
  ServerFixture fx(options);

  ServeClient flooder(fx.client_options());
  ServeClient querier(fx.client_options());

  // Pipeline far more ingest batches than the ingest queue holds.
  const Dataset batch = generate_uniform(2000, 8, 2, 0xE8);
  constexpr std::uint64_t kFlood = 24;
  for (std::uint64_t i = 0; i < kFlood; ++i) {
    flooder.send(ingest_request(i, batch));
  }

  // Interactive queries keep being answered while the flood is in flight:
  // they live in their own queue with their own dispatcher.
  for (std::uint64_t i = 0; i < 10; ++i) {
    const Response r = querier.call(marginal_request(1000 + i, {i % 8}));
    ASSERT_EQ(r.status, Status::kOk) << r.error;
  }

  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  for (std::uint64_t i = 0; i < kFlood; ++i) {
    const Response r = flooder.receive(30000);
    if (r.status == Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, Status::kOverloaded);
      EXPECT_GT(r.retry_after_ms, 0);
      ++overloaded;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(overloaded, 0u);  // the bounded queue said no, explicitly

  const net::AdmissionStats stats = fx.server.admission_stats();
  EXPECT_EQ(stats.rejected_queue_full[static_cast<std::size_t>(
                RequestClass::kIngest)],
            overloaded);
}

TEST(ServeServer, InjectedAdmissionRejectAnswersOverloaded) {
  ServerFixture fx;
  fault::ScopedFaultInjection guard;
  ServeClient client(fx.client_options());
  fault::arm(fault::Point::kAdmissionReject, 1);
  const Response rejected = client.call(marginal_request(1, {0}));
  EXPECT_EQ(rejected.status, Status::kOverloaded);
  EXPECT_GT(rejected.retry_after_ms, 0);
  const Response ok = client.call(marginal_request(2, {0}));
  EXPECT_EQ(ok.status, Status::kOk);
}

// ---------------------------------------------------------------------------
// Fault-point sweep: every net.* point, single-connection blast radius
// ---------------------------------------------------------------------------

TEST(NetFaults, AcceptFaultAbandonsOneConnectionListenerSurvives) {
  ServerFixture fx;
  fault::ScopedFaultInjection guard;
  fault::arm(fault::Point::kNetAccept, 1);

  // The first connection is accepted then dropped by the injected fault: the
  // client observes EOF (or a reset) on its first receive.
  {
    ServeClient doomed(fx.client_options());
    EXPECT_THROW(
        {
          doomed.send(marginal_request(1, {0}));
          (void)doomed.receive(2000);
        },
        std::exception);
  }
  // The listener is untouched: the next connection serves normally.
  ServeClient healthy(fx.client_options());
  const Response ok = healthy.call(marginal_request(2, {0}));
  EXPECT_EQ(ok.status, Status::kOk);
  EXPECT_GE(fault::hits(fault::Point::kNetAccept), 1u);
}

TEST(NetFaults, ServerReadFaultKillsOnlyThatConnection) {
  ServerFixture fx;
  ServeClient healthy(fx.client_options());
  // Prime the healthy connection so it exists server-side.
  ASSERT_EQ(healthy.call(marginal_request(1, {0})).status, Status::kOk);

  fault::ScopedFaultInjection guard;
  ServeClient doomed(fx.client_options());
  fault::arm(fault::Point::kNetRead, 1);
  EXPECT_THROW(
      {
        doomed.send(marginal_request(2, {0}));
        (void)doomed.receive(2000);
      },
      std::exception);
  fault::reset();

  const Response ok = healthy.call(marginal_request(3, {1}));
  EXPECT_EQ(ok.status, Status::kOk);
  EXPECT_GE(fx.server.stats().connections_failed, 1u);
}

TEST(NetFaults, ServerWriteFaultKillsOnlyThatConnection) {
  ServerFixture fx;
  ServeClient healthy(fx.client_options());
  ASSERT_EQ(healthy.call(marginal_request(1, {0})).status, Status::kOk);

  fault::ScopedFaultInjection guard;
  ServeClient doomed(fx.client_options());
  fault::arm(fault::Point::kNetWrite, 1);
  EXPECT_THROW(
      {
        doomed.send(marginal_request(2, {0}));
        (void)doomed.receive(2000);
      },
      std::exception);
  fault::reset();

  const Response ok = healthy.call(marginal_request(3, {1}));
  EXPECT_EQ(ok.status, Status::kOk);
}

TEST(NetFaults, FrameChecksumFaultKillsOnlyThatConnection) {
  ServerFixture fx;
  ServeClient healthy(fx.client_options());
  ASSERT_EQ(healthy.call(marginal_request(1, {0})).status, Status::kOk);

  fault::ScopedFaultInjection guard;
  ServeClient doomed(fx.client_options());
  fault::arm(fault::Point::kNetFrameChecksum, 1);
  EXPECT_THROW(
      {
        doomed.send(marginal_request(2, {0}));
        (void)doomed.receive(2000);
      },
      std::exception);
  fault::reset();

  const Response ok = healthy.call(marginal_request(3, {1}));
  EXPECT_EQ(ok.status, Status::kOk);
  EXPECT_GE(fx.server.stats().connections_failed, 1u);
}

TEST(NetFaults, ClientWriteFaultClosesClientServerSurvives) {
  ServerFixture fx;
  fault::ScopedFaultInjection guard;
  ServeClient doomed(fx.client_options());
  fault::arm(fault::Point::kNetWrite, 1);
  EXPECT_THROW(doomed.send(marginal_request(1, {0})), InjectedFault);
  EXPECT_FALSE(doomed.connected());
  fault::reset();

  ServeClient healthy(fx.client_options());
  EXPECT_EQ(healthy.call(marginal_request(2, {0})).status, Status::kOk);
}

/// Randomized schedules over all five net/admission points against a live
/// server with mixed traffic. Oracle: the server survives every schedule —
/// after reset, a fresh client always gets a correct answer — and affected
/// connections fail with typed errors, never crashes or hangs.
TEST(NetFaults, RandomScheduleSweepServerAlwaysSurvives) {
  ServerFixture fx;
  const Dataset batch = generate_uniform(100, 8, 2, 0xEA);
  fault::ScopedFaultInjection guard;

  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const std::string schedule = fault::arm_random_net_schedule(seed);
    SCOPED_TRACE("schedule: " + schedule);
    for (int c = 0; c < 2; ++c) {
      try {
        ServeClient client(fx.client_options());
        for (std::uint64_t i = 0; i < 6; ++i) {
          net::Request request;
          switch (i % 4) {
            case 0: request = marginal_request(i, {i % 8}); break;
            case 1: request = pair_mi_request(i, 0, 3); break;
            case 2: request = admin_request(i, Opcode::kStats); break;
            default: request = ingest_request(i, batch); break;
          }
          const Response r = client.call(request);
          // OVERLOADED (injected admission rejects) is a valid answer.
          if (r.status != Status::kOk) {
            EXPECT_TRUE(r.status == Status::kOverloaded ||
                        r.status == Status::kError)
                << static_cast<int>(r.status);
          }
        }
      } catch (const std::exception&) {
        // Injected socket/frame faults surface as typed errors on the
        // affected connection — expected.
      }
    }
    fault::reset();
    // The survival oracle: with faults disarmed, the server still answers.
    ServeClient prober(fx.client_options());
    const Response r = prober.call(marginal_request(99, {0}));
    ASSERT_EQ(r.status, Status::kOk) << "server died under " << schedule;
  }
}

}  // namespace
}  // namespace wfbn
