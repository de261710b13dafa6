// plinius_cli — drive Plinius from the command line, with the PM contents
// persisted to an image file between invocations (the DAX-backed file of a
// real deployment). Training can be killed with ^C / kill -9 at any point;
// the next `train` resumes from the mirror in the image.
//
//   plinius_cli train <model.cfg> <pm.img> [target_iters]
//   plinius_cli eval  <model.cfg> <pm.img>
//   plinius_cli info  <model.cfg> <pm.img>
//
// With no arguments, runs a self-contained demo (train, kill, resume, eval)
// in the current directory.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "common/error.h"
#include "ml/config.h"
#include "ml/synth_digits.h"
#include "plinius/platform.h"
#include "plinius/trainer.h"

namespace {

using namespace plinius;

constexpr std::size_t kPmBytes = 192u << 20;

ml::SynthDigits load_digits() {
  ml::SynthDigitsOptions opt;
  opt.train_count = 8192;
  opt.test_count = 2000;
  return ml::make_synth_digits(opt);
}

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

std::unique_ptr<Platform> make_platform(const std::string& image) {
  auto platform = std::make_unique<Platform>(MachineProfile::emlsgx_pm(), kPmBytes);
  if (file_exists(image)) {
    platform->pm().load_image(image);
    std::printf("loaded PM image %s\n", image.c_str());
  }
  return platform;
}

int cmd_train(const std::string& cfg_path, const std::string& image,
              std::uint64_t target) {
  const auto config = ml::ModelConfig::from_file(cfg_path);
  auto platform = make_platform(image);
  const auto digits = load_digits();

  Trainer trainer(*platform, config, TrainerOptions{});
  trainer.load_dataset(digits.train);
  const std::uint64_t resume = trainer.resume_or_init();
  if (resume > 0) std::printf("resuming at iteration %llu\n",
                              static_cast<unsigned long long>(resume));

  trainer.train(target, [&](std::uint64_t iter, float loss) {
    if (iter % 10 == 0 || iter == target) {
      std::printf("  iter %4llu  loss %.4f\n", static_cast<unsigned long long>(iter),
                  loss);
      // Persist the PM image as we go, so kill -9 between iterations only
      // loses the (tiny) un-imaged tail; a real PM DIMM needs no such step.
      platform->pm().save_image(image);
    }
  });
  platform->pm().save_image(image);
  std::printf("trained to iteration %llu; PM image saved to %s\n",
              static_cast<unsigned long long>(target), image.c_str());
  std::printf("simulated time: %s\n", sim::format_ns(platform->clock().now()).c_str());
  return 0;
}

int cmd_eval(const std::string& cfg_path, const std::string& image) {
  const auto config = ml::ModelConfig::from_file(cfg_path);
  if (!file_exists(image)) {
    std::fprintf(stderr, "no PM image at %s (train first)\n", image.c_str());
    return 1;
  }
  auto platform = make_platform(image);
  const auto digits = load_digits();

  Trainer trainer(*platform, config, TrainerOptions{});
  trainer.load_dataset(digits.train);
  const std::uint64_t iter = trainer.resume_or_init();
  const double acc = trainer.network().accuracy(digits.test.x.values.data(),
                                                digits.test.y.values.data(),
                                                digits.test.size());
  std::printf("model at iteration %llu: test accuracy %.2f%% (%zu samples)\n",
              static_cast<unsigned long long>(iter), 100.0 * acc,
              digits.test.size());
  return 0;
}

int cmd_info(const std::string& cfg_path, const std::string& image) {
  const auto config = ml::ModelConfig::from_file(cfg_path);
  if (!file_exists(image)) {
    std::printf("no PM image at %s\n", image.c_str());
    return 0;
  }
  auto platform = make_platform(image);
  Trainer trainer(*platform, config, TrainerOptions{});
  if (!trainer.mirror().exists()) {
    std::printf("PM region holds no mirror yet\n");
    return 0;
  }
  std::printf("mirror iteration:       %llu\n",
              static_cast<unsigned long long>(trainer.mirror().iteration()));
  std::printf("model parameters:       %zu floats (%.2f MB)\n",
              trainer.network().parameter_count(),
              static_cast<double>(trainer.network().parameter_bytes()) / 1e6);
  std::printf("encryption metadata:    %zu bytes in PM\n",
              trainer.mirror().encryption_metadata_bytes());
  std::printf("dataset in PM:          %s\n",
              trainer.data().exists() ? "yes" : "no");
  if (trainer.data().exists()) {
    std::printf("  records:              %zu (encrypted: %s)\n", trainer.data().rows(),
                trainer.data().encrypted() ? "yes" : "no");
  }
  if (trainer.metrics().exists()) {
    const auto entries = trainer.metrics().all();
    std::printf("metrics log:            %zu entries", entries.size());
    if (!entries.empty()) {
      std::printf(" (last: iter %llu loss %.4f)",
                  static_cast<unsigned long long>(entries.back().iteration),
                  entries.back().loss);
    }
    std::printf("\n");
  }
  return 0;
}

int demo() {
  const std::string cfg_path = "demo_model.cfg";
  const std::string image = "demo_pm.img";
  {
    std::ofstream cfg(cfg_path);
    cfg << ml::make_cnn_config(3, 8, 64).to_string();
  }
  std::printf("== demo: train 30 iterations ==\n");
  cmd_train(cfg_path, image, 30);
  std::printf("\n== demo: 'kill' and resume to 60 ==\n");
  cmd_train(cfg_path, image, 60);
  std::printf("\n== demo: info ==\n");
  cmd_info(cfg_path, image);
  std::printf("\n== demo: eval ==\n");
  const int rc = cmd_eval(cfg_path, image);
  std::remove(cfg_path.c_str());
  std::remove(image.c_str());
  return rc;
}

void usage() {
  std::printf(
      "usage:\n"
      "  plinius_cli train <model.cfg> <pm.img> [target_iters]\n"
      "  plinius_cli eval  <model.cfg> <pm.img>\n"
      "  plinius_cli info  <model.cfg> <pm.img>\n"
      "  plinius_cli              (no args: self-contained demo)\n");
}

/// Parses a whole decimal iteration count; nullopt on anything else.
std::optional<std::uint64_t> parse_iterations(const char* text) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 1) return demo();
    const std::string cmd = argv[1];
    if (cmd == "train" && (argc == 4 || argc == 5)) {
      const auto target = argc == 5 ? parse_iterations(argv[4]) : 100;
      if (target) return cmd_train(argv[2], argv[3], *target);
    }
    if (cmd == "eval" && argc == 4) return cmd_eval(argv[2], argv[3]);
    if (cmd == "info" && argc == 4) return cmd_info(argv[2], argv[3]);
    usage();
    return 2;
  } catch (const plinius::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
