#include "src/settop/vod_app.h"

#include <cstdlib>
#include <utility>

#include "src/common/logging.h"

namespace itv::settop {

class VodApp::MediaSinkSkeleton : public rpc::Skeleton {
 public:
  explicit MediaSinkSkeleton(VodApp& app) : app_(app) {}
  std::string_view interface_name() const override {
    return media::kMediaSinkInterface;
  }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override {
    switch (method_id) {
      case media::kSinkMethodOnData: {
        uint64_t stream_id = 0;
        int64_t position = 0;
        uint32_t chunk = 0;
        if (!rpc::DecodeArgs(args, &stream_id, &position, &chunk)) {
          return rpc::ReplyBadArgs(reply);
        }
        app_.OnData(stream_id, position, chunk);
        return rpc::ReplyOk(reply);
      }
      case media::kSinkMethodOnEndOfStream: {
        uint64_t stream_id = 0;
        if (!rpc::DecodeArgs(args, &stream_id)) {
          return rpc::ReplyBadArgs(reply);
        }
        app_.OnEndOfStream(stream_id);
        return rpc::ReplyOk(reply);
      }
      default:
        return rpc::ReplyBadMethod(reply, method_id);
    }
  }

 private:
  VodApp& app_;
};

VodApp::VodApp(rpc::ObjectRuntime& runtime, Executor& executor,
               naming::NameClient name_client, Options options,
               Metrics* metrics)
    : runtime_(runtime),
      executor_(executor),
      name_client_(std::move(name_client)),
      options_(options),
      metrics_(metrics),
      bindings_(runtime, name_client_.PathResolverFn()),
      mms_(bindings_.BindSharded<media::MmsProxy>(media::kMmsName,
                                                  options.mms_rebind)) {
  sink_ = std::make_unique<MediaSinkSkeleton>(*this);
  sink_ref_ = runtime_.Export(sink_.get());
}

VodApp::~VodApp() {
  if (gap_timer_ != kInvalidTimerId) {
    executor_.Cancel(gap_timer_);
  }
}

void VodApp::PlayMovie(const std::string& title,
                       std::function<void(Status)> done) {
  ITV_CHECK(!playing_) << "already playing";
  title_ = title;
  done_ = std::move(done);
  playing_ = true;
  position_bytes_ = 0;
  reopen_count_ = 0;
  OpenAndPlay(0);
}

void VodApp::OpenAndPlay(int64_t from_position) {
  sibling_retried_ = false;
  OpenAttempt(from_position, std::nullopt);
}

void VodApp::OpenAttempt(int64_t from_position,
                         std::optional<uint32_t> shard) {
  uint32_t my_host = runtime_.local_endpoint().host;
  auto call = [title = title_, my_host,
               sink = sink_ref_](const media::MmsProxy& mms) {
    return mms.Open(title, my_host, sink);
  };
  auto done = [this, from_position, shard](Result<media::MmsTicket> ticket) {
        if (!playing_) {
          // Stopped while opening: release what we just got.
          if (ticket.ok()) {
            CloseVia(shard, ticket->movie);
          }
          return;
        }
        if (!ticket.ok()) {
          if (!shard.has_value() && !sibling_retried_ &&
              !options_.load_board_path.empty() &&
              IsResourceExhausted(ticket.status())) {
            // Shed by the home shard's admission controller: ask the load
            // board for a sibling shard with headroom and retry there once.
            sibling_retried_ = true;
            RetrySibling(from_position, ticket.status());
            return;
          }
          ITV_LOG(Info) << "vod: open '" << title_ << "' failed: "
                        << ticket.status().ToString();
          Finish(ticket.status());
          return;
        }
        session_shard_ = shard;
        session_id_ = ticket->session_id;
        stream_id_ = ticket->stream_id;
        movie_ = ticket->movie;
        mds_host_ = ticket->mds_host;
        media::MovieProxy movie(runtime_, movie_);
        // During a reopen, the play call continues the gap-detection trace.
        trace::ScopedContext scoped(runtime_.tracer(), reopen_ctx_);
        movie.Play(from_position).OnReady([this](const Result<void>& r) {
          if (!playing_) {
            return;
          }
          if (!r.ok()) {
            ITV_LOG(Info) << "vod: play '" << title_ << "' failed: "
                          << r.status().ToString();
            OnDataGap();  // Treat a failed play like a dead stream.
            return;
          }
          if (metrics_ != nullptr) {
            metrics_->Add("vod.playing");
          }
          trace::Tracer* tracer = runtime_.tracer();
          if (tracer != nullptr && reopen_ctx_.valid()) {
            tracer->Span(reopen_ctx_, "vod.reopen", reopen_begin_,
                         title_ + " pos=" + std::to_string(position_bytes_));
            reopen_ctx_ = {};
          }
          // Arm the failure detector.
          if (gap_timer_ != kInvalidTimerId) {
            executor_.Cancel(gap_timer_);
          }
          gap_timer_ = executor_.ScheduleAfter(options_.data_gap_timeout,
                                               [this] { OnDataGap(); });
        });
  };
  if (shard.has_value()) {
    mms_.CallShard<media::MmsTicket>(*shard, std::move(call), std::move(done));
  } else {
    mms_.Call<media::MmsTicket>(my_host, std::move(call), std::move(done));
  }
}

void VodApp::RetrySibling(int64_t from_position, Status original) {
  bindings_.Bind<load::LoadBoardProxy>(options_.load_board_path)
      .Call<std::vector<load::LoadReport>>(
          [](const load::LoadBoardProxy& board) {
            return board.Snapshot(std::string(media::kMmsName));
          },
          [this, from_position,
           original](Result<std::vector<load::LoadReport>> reports) {
            if (!playing_) {
              return;
            }
            std::optional<uint32_t> own;
            if (std::optional<wire::ShardMap> map =
                    bindings_.CachedMap(media::kMmsName);
                map.has_value() && map->sharded()) {
              own = wire::ShardOf(runtime_.local_endpoint().host, *map);
            }
            std::optional<uint32_t> best;
            int64_t best_headroom = 0;
            if (reports.ok()) {
              for (const load::LoadReport& report : *reports) {
                // Shard reporter paths are 1-based ("svc/mms/3" = shard 2);
                // a non-numeric suffix is the unsharded base path.
                size_t slash = report.reporter.rfind('/');
                if (slash == std::string::npos) {
                  continue;
                }
                std::string suffix = report.reporter.substr(slash + 1);
                char* end = nullptr;
                unsigned long parsed = std::strtoul(suffix.c_str(), &end, 10);
                if (end == suffix.c_str() || *end != '\0' || parsed == 0) {
                  continue;
                }
                uint32_t shard = static_cast<uint32_t>(parsed - 1);
                if (own.has_value() && shard == *own) {
                  continue;
                }
                if (report.headroom_bps() > best_headroom) {
                  best = shard;
                  best_headroom = report.headroom_bps();
                }
              }
            }
            if (!best.has_value()) {
              // No sibling has headroom (or the board is unreachable): the
              // home shard's shed error stands.
              Finish(original);
              return;
            }
            ++sibling_retries_;
            if (metrics_ != nullptr) {
              metrics_->Add("vod.sibling_retry");
            }
            ITV_LOG(Info) << "vod: open '" << title_ << "' shed by home shard; "
                          << "retrying on shard " << *best + 1 << " ("
                          << best_headroom << " bps headroom)";
            OpenAttempt(from_position, best);
          });
}

void VodApp::OnData(uint64_t stream_id, int64_t position, uint32_t chunk) {
  if (!playing_ || stream_id != stream_id_) {
    return;
  }
  position_bytes_ = position;
  ++chunks_received_;
  if (gap_timer_ != kInvalidTimerId) {
    executor_.Cancel(gap_timer_);
  }
  gap_timer_ =
      executor_.ScheduleAfter(options_.data_gap_timeout, [this] { OnDataGap(); });
}

void VodApp::OnEndOfStream(uint64_t stream_id) {
  if (!playing_ || stream_id != stream_id_) {
    return;
  }
  if (metrics_ != nullptr) {
    metrics_->Add("vod.completed");
  }
  CloseSession();
  Finish(OkStatus());
}

void VodApp::OnDataGap() {
  // Also called at once when a play fails, while chunks the stream sent
  // before may have armed the timer: disarmed, it cannot fire into the
  // reopen and start a second open beside it.
  if (gap_timer_ != kInvalidTimerId) {
    executor_.Cancel(gap_timer_);
    gap_timer_ = kInvalidTimerId;
  }
  if (!playing_) {
    return;
  }
  if (metrics_ != nullptr) {
    metrics_->Add("vod.stream_failure");
  }
  ITV_LOG(Info) << "vod: stream went quiet at " << position_bytes_
                << " bytes; reopening";
  // Root the reopen trace at gap detection: the whole recovery — MMS rebind,
  // reopen, resumed play — hangs off this context.
  trace::Tracer* tracer = runtime_.tracer();
  if (tracer != nullptr) {
    reopen_ctx_ = tracer->StartTrace();
    reopen_begin_ = tracer->now();
    tracer->Instant(reopen_ctx_, "vod.data_gap",
                    title_ + " pos=" + std::to_string(position_bytes_));
  }
  // Section 3.5.2: close the original movie, ask the MMS to open it again.
  trace::ScopedContext scoped(tracer, reopen_ctx_);
  CloseSession();
  ++reopen_count_;
  if (metrics_ != nullptr) {
    metrics_->Add("vod.reopen");
  }
  OpenAndPlay(position_bytes_);
}

void VodApp::CloseSession() {
  if (session_id_ == 0) {
    return;
  }
  wire::ObjectRef movie = movie_;
  std::optional<uint32_t> shard = session_shard_;
  session_id_ = 0;
  stream_id_ = 0;
  movie_ = wire::ObjectRef{};
  session_shard_.reset();
  CloseVia(shard, movie);
}

void VodApp::CloseVia(std::optional<uint32_t> shard,
                      const wire::ObjectRef& movie) {
  auto call = [movie](const media::MmsProxy& mms) { return mms.Close(movie); };
  auto done = [this, shard, movie](Result<void> r) {
    if (shard.has_value() && !r.ok() && IsNotFound(r.status())) {
      // The sibling shard already handed the session off to the home shard
      // (wrong-shard drain); close it there.
      CloseVia(std::nullopt, movie);
    }
  };
  if (shard.has_value()) {
    mms_.CallShard<void>(*shard, std::move(call), std::move(done));
  } else {
    mms_.Call<void>(runtime_.local_endpoint().host, std::move(call),
                    std::move(done));
  }
}

void VodApp::Stop() {
  if (!playing_) {
    return;
  }
  playing_ = false;
  if (gap_timer_ != kInvalidTimerId) {
    executor_.Cancel(gap_timer_);
    gap_timer_ = kInvalidTimerId;
  }
  CloseSession();
  if (metrics_ != nullptr) {
    metrics_->Add("vod.stopped");
  }
}

void VodApp::Finish(Status status) {
  playing_ = false;
  if (gap_timer_ != kInvalidTimerId) {
    executor_.Cancel(gap_timer_);
    gap_timer_ = kInvalidTimerId;
  }
  // A viewer that gives up holds no stream.
  CloseSession();
  if (done_) {
    auto done = std::move(done_);
    done_ = nullptr;
    done(std::move(status));
  }
}

}  // namespace itv::settop
