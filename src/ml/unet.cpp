#include "ml/unet.hpp"

#include <cstring>
#include <fstream>
#include <string>

#include "util/deadline.hpp"

namespace asura::ml {

namespace {
util::Pcg32 makeRng(std::uint64_t seed, std::uint64_t stream) {
  return util::Pcg32(seed, stream);
}

int channelDim(const Tensor& t) {
  return t.shape().size() == 5 ? t.dim(1) : t.dim(0);
}

/// Validate shapes at the entry point so callers get one descriptive error
/// instead of an index fault four layers deep (a bad voxel grid config used
/// to surface as "MaxPool3d: odd dims" from inside pool2_).
void validateInput(const Tensor& x, const UNetConfig& cfg) {
  const auto& s = x.shape();
  if (s.size() != 4 && s.size() != 5) {
    throw std::invalid_argument(
        "UNet3D::forward: expected 4-D (C,D,H,W) or 5-D (N,C,D,H,W) input, got rank " +
        std::to_string(s.size()));
  }
  const int c = s.size() == 5 ? s[1] : s[0];
  if (c != cfg.in_channels) {
    throw std::invalid_argument("UNet3D::forward: input has " + std::to_string(c) +
                                " channels, network expects " +
                                std::to_string(cfg.in_channels));
  }
  const char* names[3] = {"D", "H", "W"};
  for (int i = 0; i < 3; ++i) {
    const int dim = s[s.size() - 3 + i];
    if (dim <= 0 || dim % 4 != 0) {
      throw std::invalid_argument(
          "UNet3D::forward: spatial dim " + std::string(names[i]) + "=" +
          std::to_string(dim) +
          " must be a positive multiple of 4 (two 2x pooling stages)");
    }
  }
  if (s.size() == 5 && s[0] <= 0) {
    throw std::invalid_argument("UNet3D::forward: batch dimension must be positive");
  }
}
}  // namespace

UNet3D::UNet3D(const UNetConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      e1a_([&] { auto r = makeRng(seed, 1); return Conv3d(cfg.in_channels, cfg.base_width, 3, r); }()),
      e1b_([&] { auto r = makeRng(seed, 2); return Conv3d(cfg.base_width, cfg.base_width, 3, r); }()),
      e2a_([&] { auto r = makeRng(seed, 3); return Conv3d(cfg.base_width, 2 * cfg.base_width, 3, r); }()),
      e2b_([&] { auto r = makeRng(seed, 4); return Conv3d(2 * cfg.base_width, 2 * cfg.base_width, 3, r); }()),
      ba_([&] { auto r = makeRng(seed, 5); return Conv3d(2 * cfg.base_width, 4 * cfg.base_width, 3, r); }()),
      bb_([&] { auto r = makeRng(seed, 6); return Conv3d(4 * cfg.base_width, 4 * cfg.base_width, 3, r); }()),
      d2a_([&] { auto r = makeRng(seed, 7); return Conv3d(6 * cfg.base_width, 2 * cfg.base_width, 3, r); }()),
      d2b_([&] { auto r = makeRng(seed, 8); return Conv3d(2 * cfg.base_width, 2 * cfg.base_width, 3, r); }()),
      d1a_([&] { auto r = makeRng(seed, 9); return Conv3d(3 * cfg.base_width, cfg.base_width, 3, r); }()),
      d1b_([&] { auto r = makeRng(seed, 10); return Conv3d(cfg.base_width, cfg.base_width, 3, r); }()),
      out_([&] { auto r = makeRng(seed, 11); return Conv3d(cfg.base_width, cfg.out_channels, 1, r); }()) {}

Tensor UNet3D::forward(const Tensor& x) {
  validateInput(x, cfg_);
  // Stage boundaries double as cooperative cancellation points: when the
  // pool armed a job deadline (PoolNodeScheduler::setJobTimeout), an
  // overrunning inference aborts here with util::DeadlineExceeded instead
  // of holding its worker thread to completion.
  util::checkJobDeadline();
  // Each layer's output replaces its input as soon as it exists, and a skip
  // tensor is dropped once concatenated: a nested call chain would keep every
  // intermediate of a stage alive to the end of its full expression, which
  // a batched inference pays per sample in peak memory.
  const auto through = [](Tensor& t, auto&... layers) { ((t = layers.forward(t)), ...); };
  // Encoder stage 1.
  Tensor e1 = e1a_.forward(x);
  through(e1, r_e1a_, e1b_, r_e1b_);
  if (!inferenceMode()) e1_channels_ = channelDim(e1);
  util::checkJobDeadline();
  // Encoder stage 2.
  Tensor e2 = pool1_.forward(e1);
  through(e2, e2a_, r_e2a_, e2b_, r_e2b_);
  if (!inferenceMode()) e2_channels_ = channelDim(e2);
  util::checkJobDeadline();
  // Bottleneck.
  Tensor t = pool2_.forward(e2);
  through(t, ba_, r_ba_, bb_, r_bb_);
  util::checkJobDeadline();
  // Decoder stage 2 (skip from e2).
  through(t, up2_);
  t = concatChannels(t, e2);
  e2 = Tensor();
  through(t, d2a_, r_d2a_, d2b_, r_d2b_);
  util::checkJobDeadline();
  // Decoder stage 1 (skip from e1).
  through(t, up1_);
  t = concatChannels(t, e1);
  e1 = Tensor();
  through(t, d1a_, r_d1a_, d1b_, r_d1b_, out_);
  return t;
}

void UNet3D::backward(const Tensor& gy) {
  Tensor g = out_.backward(gy);
  g = d1a_.backward(r_d1a_.backward(d1b_.backward(r_d1b_.backward(g))));
  Tensor g_up1, g_e1;
  splitChannels(g, channelDim(g) - e1_channels_, g_up1, g_e1);
  Tensor g_d2 = up1_.backward(g_up1);

  g = d2a_.backward(r_d2a_.backward(d2b_.backward(r_d2b_.backward(g_d2))));
  Tensor g_up2, g_e2;
  splitChannels(g, channelDim(g) - e2_channels_, g_up2, g_e2);
  Tensor g_bt = up2_.backward(g_up2);

  Tensor g_pool2 = ba_.backward(r_ba_.backward(bb_.backward(r_bb_.backward(g_bt))));
  // e2 receives gradient both from the skip and from the pooled path.
  Tensor g_e2_total = pool2_.backward(g_pool2);
  for (std::size_t i = 0; i < g_e2_total.numel(); ++i) g_e2_total[i] += g_e2[i];

  Tensor g_pool1 = e2a_.backward(r_e2a_.backward(e2b_.backward(r_e2b_.backward(g_e2_total))));
  Tensor g_e1_total = pool1_.backward(g_pool1);
  for (std::size_t i = 0; i < g_e1_total.numel(); ++i) g_e1_total[i] += g_e1[i];

  (void)e1a_.backward(r_e1a_.backward(e1b_.backward(r_e1b_.backward(g_e1_total))));
}

std::vector<std::pair<Tensor*, Tensor*>> UNet3D::parameters() {
  std::vector<std::pair<Tensor*, Tensor*>> ps;
  for (Conv3d* c : {&e1a_, &e1b_, &e2a_, &e2b_, &ba_, &bb_, &d2a_, &d2b_, &d1a_, &d1b_, &out_}) {
    ps.emplace_back(&c->w, &c->gw);
    ps.emplace_back(&c->b, &c->gb);
  }
  return ps;
}

void UNet3D::zeroGrad() {
  for (auto& [w, g] : parameters()) {
    (void)w;
    g->fill(0.0f);
  }
}

std::size_t UNet3D::parameterCount() {
  std::size_t n = 0;
  for (auto& [w, g] : parameters()) {
    (void)g;
    n += w->numel();
  }
  return n;
}

void UNet3D::save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("UNet3D::save: cannot open " + path);
  const char magic[4] = {'A', 'N', 'N', 'X'};
  os.write(magic, 4);
  const int hdr[3] = {cfg_.in_channels, cfg_.out_channels, cfg_.base_width};
  os.write(reinterpret_cast<const char*>(hdr), sizeof(hdr));
  auto self = const_cast<UNet3D*>(this);
  for (auto& [w, g] : self->parameters()) {
    (void)g;
    const auto n = static_cast<std::uint64_t>(w->numel());
    os.write(reinterpret_cast<const char*>(&n), sizeof(n));
    os.write(reinterpret_cast<const char*>(w->data()),
             static_cast<std::streamsize>(n * sizeof(float)));
  }
}

void UNet3D::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("UNet3D::load: cannot open " + path);
  char magic[4];
  is.read(magic, 4);
  if (std::memcmp(magic, "ANNX", 4) != 0) {
    throw std::runtime_error("UNet3D::load: bad magic");
  }
  int hdr[3];
  is.read(reinterpret_cast<char*>(hdr), sizeof(hdr));
  if (hdr[0] != cfg_.in_channels || hdr[1] != cfg_.out_channels ||
      hdr[2] != cfg_.base_width) {
    throw std::runtime_error("UNet3D::load: config mismatch");
  }
  for (auto& [w, g] : parameters()) {
    (void)g;
    std::uint64_t n = 0;
    is.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (n != w->numel()) throw std::runtime_error("UNet3D::load: tensor size mismatch");
    is.read(reinterpret_cast<char*>(w->data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    if (!is) throw std::runtime_error("UNet3D::load: truncated file");
  }
}

}  // namespace asura::ml
