#include "models/fig1.hpp"

namespace vrdf::models {

using dataflow::RateSet;

Fig1Vrdf make_fig1_vrdf(Duration tau, Duration rho_a, Duration rho_b) {
  Fig1Vrdf model;
  model.va = model.graph.add_actor("va", rho_a);
  model.vb = model.graph.add_actor("vb", rho_b);
  model.buffer = model.graph.add_buffer(model.va, model.vb,
                                        RateSet::singleton(3),
                                        RateSet::of({2, 3}));
  model.constraint = analysis::ThroughputConstraint{model.vb, tau};
  return model;
}

}  // namespace vrdf::models
