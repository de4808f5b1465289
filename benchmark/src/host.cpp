#include "host.hpp"

#include "qos/cost.hpp"

namespace exawatt::perf {

server::ServerOptions serve_options() {
  server::ServerOptions options;
  options.service.qos.emplace();  // CostProfile{}, autoscaler defaults
  return options;
}

StoreHost::StoreHost(const store::Store& store, const ExecutorWrap& wrap) {
  if (wrap) {
    server::ServiceOptions service = serve_options().service;
    service.qos->blocks = qos::store_block_counter(store);
    traced_service_ = std::make_unique<server::QueryService>(
        wrap(server::make_store_executor(store)), std::move(service));
    server_ = std::make_unique<server::Server>(*traced_service_,
                                               server::ServerOptions{});
  } else {
    server_ = std::make_unique<server::Server>(store, serve_options());
  }
  loop_ = std::thread([srv = server_.get()] { srv->run(); });
}

StoreHost::~StoreHost() {
  server_->shutdown();
  loop_.join();
  server_->drain();
}

ClusterHost::ClusterHost(const std::vector<const store::Store*>& shards,
                         const ExecutorWrap& shard_wrap,
                         const ExecutorWrap& front_wrap) {
  cluster::CoordinatorOptions options;
  for (const store::Store* shard : shards) {
    shards_.push_back(std::make_unique<StoreHost>(*shard, shard_wrap));
    options.shards.push_back({"127.0.0.1", shards_.back()->port()});
  }
  coordinator_ = std::make_unique<cluster::Coordinator>(std::move(options));
  server::ServiceOptions front;
  front.pool = &front_pool_;
  server::QueryService::Executor executor = coordinator_->executor();
  front_ = std::make_unique<server::QueryService>(
      front_wrap ? front_wrap(std::move(executor)) : std::move(executor),
      front);
  front_->set_stats_augment([coord = coordinator_.get()](
                                server::wire::ServerStatsWire& s) {
    coord->augment_stats(s);
  });
  server_ = std::make_unique<server::Server>(*front_, server::ServerOptions{});
  loop_ = std::thread([srv = server_.get()] { srv->run(); });
}

ClusterHost::~ClusterHost() {
  server_->shutdown();
  loop_.join();
  server_->drain();
}

Topology::Topology(const std::vector<store::Store>& stores,
                   const ExecutorWrap& shard_wrap,
                   const ExecutorWrap& front_wrap) {
  if (stores.size() == 1) {
    single_ = std::make_unique<StoreHost>(stores.front(), front_wrap);
    return;
  }
  std::vector<const store::Store*> shards;
  for (const store::Store& s : stores) shards.push_back(&s);
  cluster_ = std::make_unique<ClusterHost>(shards, shard_wrap, front_wrap);
}

std::uint16_t Topology::port() const {
  return single_ ? single_->port() : cluster_->port();
}

server::Server& Topology::server() {
  return single_ ? single_->server() : cluster_->server();
}

server::QueryService& Topology::service() {
  return single_ ? single_->service() : cluster_->service();
}

}  // namespace exawatt::perf
