#include "spice/batch.hpp"

#include <cmath>
#include <map>
#include <tuple>

#include "spice/batch_impl.hpp"
#include "spice/circuit.hpp"
#if defined(__SSE2__)
#include "mathx/simd_sse2.hpp"
#endif

namespace csdac::spice {
namespace {

const MosBatchKernel* scalar_mos_kernel() {
  static const MosBatchKernel k{mathx::SimdBackend::kScalar, 1,
                                &detail::mos_prologue<mathx::ScalarOps>};
  return &k;
}

const MosBatchKernel* sse2_mos_kernel() {
#if defined(__SSE2__)
  static const MosBatchKernel k{mathx::SimdBackend::kSse2,
                                mathx::Sse2Ops::kLanes,
                                &detail::mos_prologue<mathx::Sse2Ops>};
  return &k;
#else
  return nullptr;
#endif
}

constexpr mathx::SimdKernels<const MosBatchKernel*> kMosKernels{
    {&scalar_mos_kernel, &sse2_mos_kernel, &detail::mos_kernel_avx2}};

}  // namespace

const MosBatchKernel* mos_batch_kernel(mathx::SimdBackend backend) {
  return kMosKernels.get(backend);
}

const MosBatchKernel& active_mos_batch_kernel() {
  return *kMosKernels.select();
}

MosfetBatchSet::MosfetBatchSet(const Circuit& ckt) {
  // Group key: everything evaluate() reads that is per-model/per-geometry
  // (the per-device delta_vt/beta_scale stay lane inputs).
  using Key = std::tuple<double, double, double, double, double, double,
                         double, double, double>;
  std::map<Key, std::size_t> index;
  for (const auto& dev : ckt.devices()) {
    const auto* m = dynamic_cast<const Mosfet*>(dev.get());
    if (m == nullptr) continue;
    const auto& p = m->params();
    const auto& g = m->geometry();
    const double sign = p.type == tech::MosType::kNmos ? 1.0 : -1.0;
    const double lam = p.lambda(g.l);
    const Key key{sign, p.vt0, p.gamma, p.phi_2f, p.kp, lam, g.w, g.l, g.m};
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, groups_.size()).first;
      Group grp;
      grp.consts = MosBatchConsts{sign,          p.vt0, p.gamma,
                                  p.phi_2f,      std::sqrt(p.phi_2f),
                                  p.kp,          g.w,   g.l,
                                  g.m,           lam};
      groups_.push_back(std::move(grp));
    }
    Group& grp = groups_[it->second];
    grp.devs.push_back(m);
    grp.slots.push_back(static_cast<int>(evals_.size()));
    slot_of_.emplace(dev.get(), evals_.size());
    evals_.push_back(Mosfet::Eval{});
  }
  for (auto& grp : groups_) {
    const std::size_t n = grp.devs.size();
    grp.vd.resize(n);
    grp.vg.resize(n);
    grp.vs.resize(n);
    grp.vb.resize(n);
    grp.dvt.resize(n);
    grp.bscale.resize(n);
    grp.vgs.resize(n);
    grp.vds.resize(n);
    grp.vbs.resize(n);
    grp.vt.resize(n);
    grp.vod.resize(n);
    grp.beta.resize(n);
    grp.sqrt_arg.resize(n);
    grp.swapped.resize(n);
    grp.clamped.resize(n);
  }
}

void MosfetBatchSet::evaluate(const EvalContext& ctx) {
  if (evals_.empty()) return;
  const MosBatchKernel& kernel = active_mos_batch_kernel();
  for (auto& grp : groups_) {
    const int n = static_cast<int>(grp.devs.size());
    const MosBatchConsts& c = grp.consts;
    for (int l = 0; l < n; ++l) {
      const Mosfet* m = grp.devs[static_cast<std::size_t>(l)];
      // sign is +-1.0, so these products are exact — identical to the
      // scalar evaluate()'s own sign flip.
      grp.vd[static_cast<std::size_t>(l)] = c.sign * ctx.v(m->node_d());
      grp.vg[static_cast<std::size_t>(l)] = c.sign * ctx.v(m->node_g());
      grp.vs[static_cast<std::size_t>(l)] = c.sign * ctx.v(m->node_s());
      grp.vb[static_cast<std::size_t>(l)] = c.sign * ctx.v(m->node_b());
      grp.dvt[static_cast<std::size_t>(l)] = m->delta_vt();
      grp.bscale[static_cast<std::size_t>(l)] = m->beta_scale();
    }
    MosBatchSpans io{grp.vd.data(),     grp.vg.data(),    grp.vs.data(),
                     grp.vb.data(),     grp.dvt.data(),   grp.bscale.data(),
                     grp.vgs.data(),    grp.vds.data(),   grp.vbs.data(),
                     grp.vt.data(),     grp.vod.data(),   grp.beta.data(),
                     grp.sqrt_arg.data(), grp.swapped.data(),
                     grp.clamped.data()};
    kernel.prologue(c, io, n);

    // Region-dependent tail, scalar per lane — byte-for-byte the same
    // expressions as Mosfet::evaluate().
    for (int l = 0; l < n; ++l) {
      const auto sl = static_cast<std::size_t>(l);
      const Mosfet* m = grp.devs[sl];
      Mosfet::Eval e{};
      const bool sw = grp.swapped[sl] != 0;
      e.eff_d = sw ? m->node_s() : m->node_d();
      e.eff_s = sw ? m->node_d() : m->node_s();
      e.vgs = grp.vgs[sl];
      e.vds = grp.vds[sl];
      e.vbs = grp.vbs[sl];
      e.vt = grp.vt[sl];
      e.vod = grp.vod[sl];
      const double beta = grp.beta[sl];
      const double dvt_dvbs =
          grp.clamped[sl] != 0 ? 0.0
                               : -c.gamma / (2.0 * grp.sqrt_arg[sl]);
      if (e.vod <= 0.0) {
        e.region = MosRegion::kCutoff;
        e.id = e.gm = e.gds = e.gmb = 0.0;
      } else {
        const double clm = 1.0 + c.lam * e.vds;
        if (e.vds >= e.vod) {
          e.region = MosRegion::kSaturation;
          e.id = 0.5 * beta * e.vod * e.vod * clm;
          e.gm = beta * e.vod * clm;
          e.gds = 0.5 * beta * e.vod * e.vod * c.lam;
        } else {
          e.region = MosRegion::kTriode;
          const double shape = e.vod * e.vds - 0.5 * e.vds * e.vds;
          e.id = beta * shape * clm;
          e.gm = beta * e.vds * clm;
          e.gds = beta * (e.vod - e.vds) * clm + beta * shape * c.lam;
        }
        e.gmb = e.gm * (-dvt_dvbs);
      }
      evals_[static_cast<std::size_t>(grp.slots[sl])] = e;
    }
  }
  mathx::record_dispatch(kernel.backend);
}

}  // namespace csdac::spice
