#include "analysis/certificate.hpp"

#include "util/error.hpp"

namespace vrdf::analysis {

const char* service_policy_name(ServicePolicy policy) {
  switch (policy) {
    case ServicePolicy::TdmSlotGranular: return "tdm-slot-granular";
    case ServicePolicy::TdmLatencyRate: return "tdm-latency-rate";
  }
  return "unknown";
}

Certificate make_certificate(const dataflow::VrdfGraph& graph,
                             const GraphAnalysis& analysis,
                             const ParameterOverlay& overlay) {
  VRDF_REQUIRE(analysis.admissible,
               "cannot emit a certificate for an inadmissible analysis");
  VRDF_REQUIRE(analysis.leads.size() == analysis.actors_in_order.size(),
               "analysis carries no alignment leads; certificates require "
               "the sized result shape");
  VRDF_REQUIRE(analysis.pacing.size() == analysis.actors_in_order.size(),
               "analysis pacing vector does not match its actor order");

  Certificate cert;
  cert.constraints = analysis.constraints;
  cert.constraint_is_sink_kind = analysis.constraint_is_sink_kind;
  cert.constraint_is_source_kind = analysis.constraint_is_source_kind;
  cert.rounding = analysis.rounding;
  cert.total_capacity = analysis.total_capacity;

  cert.actors.reserve(analysis.actors_in_order.size());
  for (std::size_t i = 0; i < analysis.actors_in_order.size(); ++i) {
    const dataflow::ActorId v = analysis.actors_in_order[i];
    ActorFact fact;
    fact.actor = v;
    fact.phi = analysis.pacing[i];
    fact.lead = analysis.leads[i];
    fact.rho = overlay.response_time_of(graph, v);
    cert.actors.push_back(fact);
  }

  cert.pairs.reserve(analysis.pairs.size());
  for (const PairAnalysis& pair : analysis.pairs) {
    PairFact fact;
    fact.buffer = pair.buffer;
    fact.producer = pair.producer;
    fact.consumer = pair.consumer;
    fact.side = pair.determined_by;
    fact.is_static = pair.is_static;
    fact.is_feedback = pair.is_feedback;
    fact.delta_producer = pair.delta_producer;
    fact.delta_consumer = pair.delta_consumer;
    fact.raw_tokens = pair.raw_tokens;
    fact.initial_tokens = pair.initial_tokens;
    fact.required_initial_tokens = pair.required_initial_tokens;
    fact.capacity = pair.capacity;
    fact.tight_rounding = pair.tight_rounding;
    cert.pairs.push_back(fact);
  }
  return cert;
}

}  // namespace vrdf::analysis
