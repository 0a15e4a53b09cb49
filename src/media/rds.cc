#include "src/media/rds.h"

#include <utility>

#include "src/common/address.h"
#include "src/common/logging.h"

namespace itv::media {

RdsService::RdsService(rpc::ObjectRuntime& runtime, Executor& executor,
                       naming::NameClient name_client,
                       std::vector<DataItem> items, Options options,
                       Metrics* metrics)
    : runtime_(runtime),
      executor_(executor),
      name_client_(std::move(name_client)),
      options_(options),
      metrics_(metrics),
      next_transfer_id_(runtime.incarnation() << 20),
      bindings_(runtime, name_client_.PathResolverFn()) {
  for (const DataItem& item : items) {
    items_[item.name] = item;
  }
}

rpc::BoundClient<CmgrProxy> RdsService::CmgrFor(uint8_t neighborhood) {
  rpc::BindingOptions opts = rpc::BindingTable::DefaultOptions();
  opts.max_attempts = 2;
  return bindings_.Bind<CmgrProxy>(CmgrName(neighborhood), opts);
}

void RdsService::HandleOpenData(const std::string& name,
                                const wire::ObjectRef& sink,
                                uint32_t caller_host, rpc::ReplyFn reply) {
  auto item = items_.find(name);
  if (item == items_.end()) {
    return rpc::ReplyError(reply, NotFoundError("no such data item: " + name));
  }
  Count("rds.open_data");

  if (!IsSettopHost(caller_host)) {
    // Server-side callers (tests, tools) are not bandwidth-managed: deliver
    // at the transfer cap with no connection.
    ConnectionGrant grant;
    grant.downstream_bps = options_.max_transfer_bps;
    return StartTransfer(item->second, sink, caller_host, grant,
                         std::move(reply));
  }

  uint8_t neighborhood = NeighborhoodOfHost(caller_host);
  uint32_t server_host = runtime_.local_endpoint().host;
  int64_t want_bps = options_.max_transfer_bps;
  DataItem data = item->second;
  CmgrFor(neighborhood)
      .Call<ConnectionGrant>(
          [caller_host, server_host, want_bps](const CmgrProxy& cmgr) {
            return cmgr.Allocate(caller_host, server_host, want_bps,
                                 /*allow_partial=*/true);
          },
          [this, data, sink, caller_host, reply](Result<ConnectionGrant> grant) {
            if (!grant.ok()) {
              Count("rds.cmgr_denied");
              return rpc::ReplyError(reply, grant.status());
            }
            StartTransfer(data, sink, caller_host, *grant, std::move(reply));
          });
}

void RdsService::StartTransfer(const DataItem& item, const wire::ObjectRef& sink,
                               uint32_t settop_host,
                               const ConnectionGrant& grant,
                               rpc::ReplyFn reply) {
  TransferTicket ticket;
  ticket.transfer_id = ++next_transfer_id_;
  ticket.size_bytes = item.size_bytes;
  ticket.granted_bps = grant.downstream_bps;
  ++transfers_started_;

  // Transfer time = size / granted rate; then complete via the sink and
  // release the variable-bit-rate connection.
  double seconds = static_cast<double>(item.size_bytes) * 8.0 /
                   static_cast<double>(grant.downstream_bps);
  uint64_t connection_id = grant.connection_id;
  uint8_t neighborhood =
      IsSettopHost(settop_host) ? NeighborhoodOfHost(settop_host) : 0;
  executor_.ScheduleAfter(
      Duration::Seconds(seconds),
      [this, item, sink, ticket, connection_id, neighborhood] {
        Count("rds.transfer_complete");
        DataSinkProxy(runtime_, sink)
            .OnComplete(ticket.transfer_id, item.name, item.size_bytes,
                        item.content)
            .OnReady([](const Result<void>&) {});
        if (connection_id != 0 && neighborhood != 0) {
          CmgrFor(neighborhood)
              .Call<void>(
                  [connection_id](const CmgrProxy& cmgr) {
                    return cmgr.Release(connection_id);
                  },
                  [](Result<void>) {});
        }
      });
  rpc::ReplyWith(reply, ticket);
}

void RdsService::Dispatch(uint32_t method_id, const wire::Bytes& args,
                          const rpc::CallContext& ctx, rpc::ReplyFn reply) {
  switch (method_id) {
    case kRdsMethodOpenData: {
      std::string name;
      wire::ObjectRef sink;
      if (!rpc::DecodeArgs(args, &name, &sink)) {
        return rpc::ReplyBadArgs(reply);
      }
      return HandleOpenData(name, sink, ctx.caller_endpoint.host,
                            std::move(reply));
    }
    case kRdsMethodListItems: {
      std::vector<DataItem> out;
      out.reserve(items_.size());
      for (const auto& [name, item] : items_) {
        out.push_back(item);
      }
      return rpc::ReplyWith(reply, out);
    }
    default:
      return rpc::ReplyBadMethod(reply, method_id);
  }
}

void RdsService::Count(std::string_view name) {
  if (metrics_ != nullptr) {
    metrics_->Add(name);
  }
}

}  // namespace itv::media
