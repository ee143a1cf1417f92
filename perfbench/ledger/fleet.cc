// The in-process fleet and the bench-owned request decorators.
#include <filesystem>
#include <utility>

#include "harness.h"

namespace perfbench {

using visclean::Status;
using visclean::WireRequest;
using visclean::WireResponse;

void Ledger::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Ledger::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

WireResponse TapHandler::Handle(const WireRequest& request) {
  if (!ledger_.enabled()) return inner_.Handle(request);
  Span span;
  span.tier = tier_;
  span.type = request.type;
  if (request.type == WireRequestType::kForwarded) {
    visclean::Result<WireRequest> inner =
        visclean::DecodeRequestPayload(request.inner);
    if (inner.ok()) span.type = inner.value().type;
  }
  span.start_ns = NowNs();
  WireResponse response = inner_.Handle(request);
  span.dur_ns = NowNs() - span.start_ns;
  span.ok = response.type != visclean::WireResponseType::kError;
  if (response.type == visclean::WireResponseType::kState) {
    span.state_bytes = response.state.size();
  }
  if (response.type == visclean::WireResponseType::kPending) {
    span.iteration = response.pending.iteration;
  }
  ledger_.Record(std::move(span));
  return response;
}

Fleet::~Fleet() { Stop(); }

Status Fleet::Start(const Workload& workload,
                    const std::vector<const DirtyDataset*>& datasets,
                    const std::string& scratch_dir, Ledger* ledger) {
  visclean::shard::RouterOptions router_options;
  for (size_t i = 0; i < workload.shards; ++i) {
    auto parts = std::make_unique<ShardParts>();
    ServeOptions serve = workload.serve;
    if (serve.persist_progress) {
      serve.snapshot_dir = scratch_dir + "/shard" + std::to_string(i);
      std::filesystem::create_directories(serve.snapshot_dir);
    }
    parts->manager = std::make_unique<visclean::SessionManager>(serve);
    for (const DirtyDataset* data : datasets) {
      VC_RETURN_IF_ERROR(parts->manager->RegisterDataset(data));
    }
    parts->handler =
        std::make_unique<visclean::SessionManagerHandler>(*parts->manager);
    visclean::WireHandler* handler = parts->handler.get();
    if (ledger != nullptr) {
      parts->tap = std::make_unique<TapHandler>(*handler, Tier::kShard, *ledger);
      handler = parts->tap.get();
    }
    visclean::ServerOptions server_options;
    server_options.registry = &parts->manager->registry();
    parts->server =
        std::make_unique<visclean::VisCleanServer>(*handler, server_options);
    VC_RETURN_IF_ERROR(parts->server->Start());
    router_options.shards.push_back({static_cast<uint32_t>(i),
                                     parts->server->port(),
                                     serve.snapshot_dir});
    shards_.push_back(std::move(parts));
  }
  router_ = std::make_unique<visclean::shard::ShardRouter>(router_options);
  VC_RETURN_IF_ERROR(router_->Start());
  visclean::WireHandler* front_handler = router_.get();
  if (ledger != nullptr) {
    router_tap_ = std::make_unique<TapHandler>(*router_, Tier::kRouter, *ledger);
    front_handler = router_tap_.get();
  }
  visclean::ServerOptions front_options;
  front_options.worker_threads = workload.connections + (workload.admin ? 1 : 0);
  front_ = std::make_unique<visclean::VisCleanServer>(*front_handler,
                                                      front_options);
  return front_->Start();
}

void Fleet::Stop() {
  if (front_) front_->Stop();
  if (router_) router_->Stop();
  for (auto& parts : shards_) parts->server->Stop();
}

uint16_t Fleet::port() const { return front_->port(); }

}  // namespace perfbench
