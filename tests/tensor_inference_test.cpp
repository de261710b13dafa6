#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "crypto/envelope.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "plinius/platform.h"
#include "plinius/tensor_mirror.h"
#include "plinius/trainer.h"
#include "romulus/romulus.h"
#include "serve/request.h"
#include "serve/server.h"

namespace plinius {
namespace {

crypto::AesGcm test_gcm() {
  Bytes key(16);
  Rng(55).fill(key.data(), key.size());
  return crypto::AesGcm(key);
}

class TensorMirrorTest : public ::testing::Test {
 protected:
  TensorMirrorTest()
      : platform_(MachineProfile::sgx_emlpm(), 16 * 1024 * 1024),
        rom_(platform_.pm(), 0, 7 * 1024 * 1024,
             romulus::PwbPolicy::clflushopt_sfence(), true),
        mirror_(rom_, platform_.enclave(), test_gcm()) {
    weights_.resize(1000);
    biases_.resize(64);
    bn_stats_.resize(128);
    Rng rng(1);
    for (auto& v : weights_) v = rng.normal();
    for (auto& v : biases_) v = rng.normal();
    for (auto& v : bn_stats_) v = rng.normal();
  }

  std::vector<NamedTensor> tensor_set() {
    return {{"conv1/weights", weights_},
            {"conv1/biases", biases_},
            {"conv1/bn", bn_stats_}};
  }

  Platform platform_;
  romulus::Romulus rom_;
  TensorMirror mirror_;
  std::vector<float> weights_, biases_, bn_stats_;
};

TEST_F(TensorMirrorTest, AllocRoundTrip) {
  EXPECT_FALSE(mirror_.exists());
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  EXPECT_TRUE(mirror_.exists());
  EXPECT_EQ(mirror_.tensor_count(), 3u);
  EXPECT_EQ(mirror_.version(), 0u);
  EXPECT_THROW(mirror_.alloc(tensors), PmError);

  mirror_.mirror_out(tensors, 7);
  EXPECT_EQ(mirror_.version(), 7u);

  // Scramble the in-enclave tensors, restore, and compare.
  const auto saved_w = weights_;
  const auto saved_b = biases_;
  Rng rng(9);
  for (auto& v : weights_) v = rng.normal();
  for (auto& v : biases_) v = rng.normal();
  auto restored = tensor_set();
  EXPECT_EQ(mirror_.mirror_in(restored), 7u);
  EXPECT_EQ(weights_, saved_w);
  EXPECT_EQ(biases_, saved_b);
}

TEST_F(TensorMirrorTest, OrderIndependentMatchByName) {
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  mirror_.mirror_out(tensors, 1);

  const auto saved = bn_stats_;
  std::fill(bn_stats_.begin(), bn_stats_.end(), 0.0f);
  std::vector<NamedTensor> reordered = {{"conv1/bn", bn_stats_},
                                        {"conv1/biases", biases_},
                                        {"conv1/weights", weights_}};
  EXPECT_EQ(mirror_.mirror_in(reordered), 1u);
  EXPECT_EQ(bn_stats_, saved);
}

TEST_F(TensorMirrorTest, RejectsBadSets) {
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  mirror_.mirror_out(tensors, 0);

  std::vector<NamedTensor> unknown = {{"conv1/weights", weights_},
                                      {"conv1/biases", biases_},
                                      {"wrong/name", bn_stats_}};
  EXPECT_THROW(mirror_.mirror_out(unknown, 1), MlError);
  // The failed mirror_out aborted mid-transaction: the version bump and the
  // partially sealed tensors must have been rolled back, not left torn.
  EXPECT_EQ(mirror_.version(), 0u);
  EXPECT_THROW((void)mirror_.mirror_in(unknown), MlError);

  std::vector<float> wrong_size(10);
  std::vector<NamedTensor> resized = {{"conv1/weights", wrong_size},
                                      {"conv1/biases", biases_},
                                      {"conv1/bn", bn_stats_}};
  EXPECT_THROW(mirror_.mirror_out(resized, 1), MlError);

  std::vector<NamedTensor> too_few = {{"conv1/weights", weights_}};
  EXPECT_THROW(mirror_.mirror_out(too_few, 1), MlError);
}

TEST_F(TensorMirrorTest, RejectsDuplicateAndLongNames) {
  std::vector<NamedTensor> dup = {{"t", weights_}, {"t", biases_}};
  EXPECT_THROW(mirror_.alloc(dup), MlError);
  std::vector<NamedTensor> long_name = {
      {std::string(60, 'x'), weights_}};
  EXPECT_THROW(mirror_.alloc(long_name), MlError);
  std::vector<NamedTensor> empty;
  EXPECT_THROW(mirror_.alloc(empty), Error);
}

TEST_F(TensorMirrorTest, SurvivesCrash) {
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  mirror_.mirror_out(tensors, 3);
  const auto saved = weights_;

  platform_.pm().crash();
  romulus::Romulus recovered(platform_.pm(), 0, 7 * 1024 * 1024,
                             romulus::PwbPolicy::clflushopt_sfence());
  TensorMirror mirror2(recovered, platform_.enclave(), test_gcm());
  std::fill(weights_.begin(), weights_.end(), 0.0f);
  auto restored = tensor_set();
  EXPECT_EQ(mirror2.mirror_in(restored), 3u);
  EXPECT_EQ(weights_, saved);
}

TEST_F(TensorMirrorTest, TamperDetected) {
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  mirror_.mirror_out(tensors, 1);
  for (std::size_t off = 256; off < 64 * 1024; off += 256) {
    rom_.main_base()[off] ^= 0x01;
  }
  auto restored = tensor_set();
  EXPECT_THROW((void)mirror_.mirror_in(restored), Error);
}

TEST_F(TensorMirrorTest, ForgedTableFailsClosed) {
  auto tensors = tensor_set();
  mirror_.alloc(tensors);
  mirror_.mirror_out(tensors, 1);
  // Header layout: magic, version, count, table_off; each table entry
  // starts with its 48-byte name.
  const std::uint64_t hdr_off = rom_.root(TensorMirror::kRootSlot);
  const std::uint64_t table_off = rom_.read<std::uint64_t>(hdr_off + 24);
  const auto assign = [&](std::uint64_t off, std::uint64_t value) {
    const auto saved = rom_.read<std::uint64_t>(off);
    rom_.run_transaction([&] { rom_.tx_assign(off, value); });
    return saved;
  };
  auto restored = tensor_set();

  // A forged count sized from PM: no allocation, a typed error.
  for (const std::uint64_t count : {std::uint64_t{1} << 61, std::uint64_t{100000}}) {
    const std::uint64_t saved = assign(hdr_off + 16, count);
    EXPECT_THROW((void)mirror_.blob_sizes(), PmError);
    EXPECT_THROW((void)mirror_.sealed_bytes(), PmError);
    EXPECT_THROW((void)mirror_.mirror_in(restored), PmError);
    EXPECT_THROW(mirror_.mirror_out(tensors, 2), PmError);
    assign(hdr_off + 16, saved);
  }
  // A table pushed past the end of main.
  const std::uint64_t saved_table = assign(hdr_off + 24, rom_.main_size() - 8);
  EXPECT_THROW((void)mirror_.blob_sizes(), PmError);
  assign(hdr_off + 24, saved_table);

  // A name with no NUL in its 48 bytes is never read as a C string.
  Bytes name(48);
  std::memcpy(name.data(), rom_.main_base() + table_off, name.size());
  rom_.run_transaction([&] {
    const Bytes unterminated(48, 'x');
    rom_.tx_store(table_off, unterminated.data(), unterminated.size());
  });
  EXPECT_THROW((void)mirror_.blob_sizes(), PmError);
  EXPECT_THROW((void)mirror_.mirror_in(restored), PmError);
  rom_.run_transaction([&] { rom_.tx_store(table_off, name.data(), name.size()); });

  EXPECT_EQ(mirror_.version(), 1u);
  EXPECT_EQ(mirror_.mirror_in(restored), 1u);
}

// --- secure inference -----------------------------------------------------------

// Secure inference (paper §VI) runs on serve::InferenceServer; a single
// client query is a one-request workload served at batch 1.
class InferenceTest : public ::testing::Test {
 protected:
  InferenceTest() : platform_(MachineProfile::emlsgx_pm(), 64 * 1024 * 1024) {
    ml::SynthDigitsOptions opt;
    opt.train_count = 2048;
    opt.test_count = 512;
    digits_ = ml::make_synth_digits(opt);
  }

  /// Client side: seals `len` bytes as a query arriving now.
  serve::Request query(const crypto::AesGcm& gcm, crypto::IvSequence& iv,
                       const void* plain, std::size_t len, std::uint64_t id = 0) {
    serve::Request r;
    r.id = id;
    r.arrival_ns = platform_.clock().now();
    r.sealed_query =
        crypto::seal(gcm, iv, ByteSpan(static_cast<const std::uint8_t*>(plain), len));
    return r;
  }
  serve::Request image_query(const crypto::AesGcm& gcm, crypto::IvSequence& iv,
                             std::size_t row, std::uint64_t id = 0) {
    return query(gcm, iv, digits_.test.x.row(row), ml::kDigitPixels * sizeof(float), id);
  }

  /// Serves one request at batch 1 and returns its sealed reply.
  static Bytes serve_one(serve::InferenceServer& server, serve::Request request) {
    const std::vector<serve::Completion> done =
        server.run(std::span<const serve::Request>(&request, 1));
    EXPECT_EQ(done.size(), 1u);
    EXPECT_EQ(done.front().batch_size, 1u);
    return done.front().sealed_reply;
  }

  std::size_t label(std::size_t row) const {
    const float* truth = digits_.test.y.row(row);
    std::size_t best = 0;
    for (std::size_t c = 1; c < ml::kDigitClasses; ++c) {
      if (truth[c] > truth[best]) best = c;
    }
    return best;
  }

  Platform platform_;
  ml::SynthDigits digits_;
};

TEST_F(InferenceTest, SealedQueryRoundTrip) {
  Trainer trainer(platform_, ml::make_cnn_config(3, 8, 64), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(80);

  const crypto::AesGcm gcm{trainer.data_key()};
  serve::InferenceServer server(platform_, trainer.network(), gcm, {});
  EXPECT_EQ(trainer.network().input_shape().size(), ml::kDigitPixels);

  // Client side: seal a test image, query, open the sealed prediction.
  crypto::IvSequence client_iv(77);
  int correct = 0;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    const Bytes sealed_reply = serve_one(server, image_query(gcm, client_iv, i));
    const serve::OpenedReply reply = serve::open_reply(gcm, sealed_reply);
    ASSERT_EQ(reply.status, serve::ReplyStatus::kOk);
    correct += reply.value == label(i);
  }
  EXPECT_GT(correct, n * 3 / 4);  // trained model classifies well
  EXPECT_EQ(server.stats().completed, static_cast<std::uint64_t>(n));
  EXPECT_GT(server.stats().busy_ns, 0.0);
}

TEST_F(InferenceTest, TamperedQueryRejected) {
  Trainer trainer(platform_, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(2);

  const crypto::AesGcm gcm{trainer.data_key()};
  serve::InferenceServer server(platform_, trainer.network(), gcm, {});
  crypto::IvSequence iv(1);
  serve::Request tampered = image_query(gcm, iv, 0);
  tampered.sealed_query[40] ^= 0xFF;
  serve::Request truncated = tampered;
  truncated.sealed_query.resize(10);
  // Either way the client gets a sealed auth-failed reply, never a plaintext
  // error, and nothing is served.
  for (const serve::Request& r : {tampered, truncated}) {
    const serve::OpenedReply reply = serve::open_reply(gcm, serve_one(server, r));
    EXPECT_EQ(reply.status, serve::ReplyStatus::kAuthFailed);
    EXPECT_EQ(reply.value, 0u);
  }
  EXPECT_EQ(server.stats().auth_failed, 2u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST_F(InferenceTest, WrongKeyClientRejected) {
  Trainer trainer(platform_, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(2);

  const crypto::AesGcm gcm{trainer.data_key()};
  serve::InferenceServer server(platform_, trainer.network(), gcm, {});
  Bytes rogue_key(16, 0x66);
  const crypto::AesGcm rogue(rogue_key);
  crypto::IvSequence iv(1);
  const Bytes sealed_reply = serve_one(server, image_query(rogue, iv, 0));
  EXPECT_EQ(serve::open_reply(gcm, sealed_reply).status,
            serve::ReplyStatus::kAuthFailed);
  // The reply is sealed under the provisioned key: the rogue client cannot
  // even read the rejection.
  EXPECT_THROW((void)serve::open_reply(rogue, sealed_reply), CryptoError);
  EXPECT_EQ(server.stats().auth_failed, 1u);
}

TEST_F(InferenceTest, WrongSizeQueryNamesExpectedVsGot) {
  Trainer trainer(platform_, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(2);
  const crypto::AesGcm gcm{trainer.data_key()};
  serve::InferenceServer server(platform_, trainer.network(), gcm, {});

  // An authentic query of the wrong plaintext size is rejected before any
  // decryption, with a reply the size of a served one.
  crypto::IvSequence iv(3);
  std::vector<float> short_sample(ml::kDigitPixels - 1, 0.5f);
  const Bytes sealed_reply = serve_one(
      server, query(gcm, iv, short_sample.data(), short_sample.size() * sizeof(float)));
  EXPECT_EQ(sealed_reply.size(), serve::kReplySealedSize);
  const serve::OpenedReply reply = serve::open_reply(gcm, sealed_reply);
  EXPECT_EQ(reply.status, serve::ReplyStatus::kAuthFailed);
  EXPECT_EQ(reply.value, 0u);
  EXPECT_EQ(server.stats().auth_failed, 1u);

  // A reply cut short is rejected with a message naming both sizes.
  try {
    (void)serve::open_reply(gcm, ByteSpan(sealed_reply.data(), sealed_reply.size() - 2));
    FAIL() << "wrong-size reply must throw";
  } catch (const CryptoError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected " + std::to_string(serve::kReplySealedSize)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("got " + std::to_string(sealed_reply.size() - 2)),
              std::string::npos)
        << msg;
  }
}

TEST_F(InferenceTest, OpenPredictionRejectsTruncationTamperAndBadPayload) {
  Trainer trainer(platform_, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(2);
  const crypto::AesGcm gcm{trainer.data_key()};
  serve::InferenceServer server(platform_, trainer.network(), gcm, {});

  crypto::IvSequence iv(5);
  const Bytes reply = serve_one(server, image_query(gcm, iv, 0));

  // Truncated below the envelope overhead, truncated mid-ciphertext, and
  // MAC-corrupted replies must all fail as CryptoError.
  EXPECT_THROW((void)serve::open_reply(gcm, ByteSpan(reply.data(), 4)), CryptoError);
  EXPECT_THROW((void)serve::open_reply(gcm, ByteSpan(reply.data(), reply.size() - 1)),
               CryptoError);
  Bytes mac_corrupt = reply;
  mac_corrupt[mac_corrupt.size() - 1] ^= 0x01;  // last MAC byte
  EXPECT_THROW((void)serve::open_reply(gcm, mac_corrupt), CryptoError);

  // An authentic envelope of the wrong payload size names expected vs got.
  crypto::IvSequence iv2(6);
  const Bytes bad_payload = crypto::seal(gcm, iv2, ByteSpan(reply.data(), 3));
  try {
    (void)serve::open_reply(gcm, bad_payload);
    FAIL() << "bad payload size must throw";
  } catch (const CryptoError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected " + std::to_string(serve::kReplySealedSize)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("got " + std::to_string(bad_payload.size())), std::string::npos)
        << msg;
  }

  // The untampered reply still opens fine afterwards.
  const serve::OpenedReply opened = serve::open_reply(gcm, reply);
  EXPECT_EQ(opened.status, serve::ReplyStatus::kOk);
  EXPECT_LT(opened.value, ml::kDigitClasses);
}

TEST_F(InferenceTest, ConcurrentSealedQueriesAreSafeAndAccounted) {
  Trainer trainer(platform_, ml::make_cnn_config(2, 4, 32), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(20);
  const crypto::AesGcm gcm{trainer.data_key()};
  ml::Network& net = trainer.network();

  // Baseline predictions, one sample at a time.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kQueries = 64;
  std::array<std::size_t, kQueries> expected{};
  for (std::size_t i = 0; i < kQueries; ++i) {
    net.predict(digits_.test.x.row(i), 1, &expected[i]);
  }

  // One burst served by four concurrent workers in batches of four (GCM
  // opens and reply seals run host-parallel): every reply must carry the
  // serial prediction and every query must be counted exactly once.
  platform_.enclave().set_tcs_count(kWorkers);
  serve::ServerOptions opt;
  opt.workers = kWorkers;
  opt.batch.max_batch = 4;
  serve::InferenceServer server(platform_, net, gcm, opt);
  ASSERT_EQ(server.workers(), kWorkers);
  crypto::IvSequence iv(100);
  std::vector<serve::Request> burst;
  for (std::size_t i = 0; i < kQueries; ++i) burst.push_back(image_query(gcm, iv, i, i));
  const std::vector<serve::Completion> done = server.run(burst);

  ASSERT_EQ(done.size(), kQueries);
  std::set<std::size_t> workers_used;
  int mismatches = 0;
  for (const serve::Completion& c : done) {
    const serve::OpenedReply reply = serve::open_reply(gcm, c.sealed_reply);
    if (reply.status != serve::ReplyStatus::kOk || reply.value != expected[c.id]) {
      ++mismatches;
    }
    workers_used.insert(c.worker);
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(workers_used.size(), kWorkers);
  EXPECT_EQ(server.stats().completed, kQueries);
  EXPECT_EQ(server.stats().total_hist.count(), server.stats().completed);
}

TEST_F(InferenceTest, EvaluateMatchesNetworkAccuracy) {
  Trainer trainer(platform_, ml::make_cnn_config(3, 8, 64), TrainerOptions{});
  trainer.load_dataset(digits_.train);
  (void)trainer.train(60);
  const crypto::AesGcm gcm{trainer.data_key()};
  ml::Network& net = trainer.network();
  serve::InferenceServer server(platform_, net, gcm, {});

  // Every test row served at batch 1 gets the network's own prediction, so
  // the served accuracy is the network's accuracy.
  crypto::IvSequence iv(9);
  std::size_t correct = 0;
  for (std::size_t row = 0; row < digits_.test.size(); ++row) {
    const serve::OpenedReply reply =
        serve::open_reply(gcm, serve_one(server, image_query(gcm, iv, row)));
    std::size_t want = 0;
    net.predict(digits_.test.x.row(row), 1, &want);
    ASSERT_EQ(reply.status, serve::ReplyStatus::kOk);
    ASSERT_EQ(reply.value, want) << "row " << row;
    correct += reply.value == label(row);
  }
  const double acc = static_cast<double>(correct) / static_cast<double>(digits_.test.size());
  EXPECT_GT(acc, 0.5);
  EXPECT_LE(acc, 1.0);
  EXPECT_EQ(server.stats().completed, digits_.test.size());
}

}  // namespace
}  // namespace plinius
