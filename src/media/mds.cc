#include "src/media/mds.h"

#include <utility>

#include "src/common/logging.h"

namespace itv::media {

// A dynamically created movie object: one per open (paper Section 9.2). It
// drives the simulated CBR delivery loop and is unexported when the stream
// closes, so stale movie references NACK.
class MdsService::MovieObject : public rpc::Skeleton {
 public:
  MovieObject(MdsService& mds, uint64_t stream_id, MovieInfo info,
              uint32_t settop_host, ConnectionGrant connection,
              wire::ObjectRef sink)
      : mds_(mds),
        stream_id_(stream_id),
        info_(std::move(info)),
        settop_host_(settop_host),
        connection_(connection),
        sink_(sink),
        opened_at_(mds_.executor_.Now()) {
    ref_ = mds_.runtime_.Export(this);
  }

  ~MovieObject() override {
    ticker_.Stop();
    mds_.runtime_.Unexport(ref_);
  }

  std::string_view interface_name() const override { return kMovieInterface; }

  wire::ObjectRef ref() const { return ref_; }

  SessionInfo Describe() const {
    SessionInfo s;
    s.stream_id = stream_id_;
    s.title = info_.title;
    s.settop_host = settop_host_;
    s.connection = connection_;
    s.movie = ref_;
    return s;
  }

  const MovieInfo& info() const { return info_; }
  bool played() const { return played_; }
  Time opened_at() const { return opened_at_; }

  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override {
    switch (method_id) {
      case kMovieMethodPlay: {
        int64_t from = 0;
        if (!rpc::DecodeArgs(args, &from)) {
          return rpc::ReplyBadArgs(reply);
        }
        Play(from);
        return rpc::ReplyOk(reply);
      }
      case kMovieMethodPause:
        ticker_.Stop();
        mds_.Count("mds.pause");
        return rpc::ReplyOk(reply);
      case kMovieMethodPosition:
        return rpc::ReplyWith(reply, position_bytes_);
      default:
        return rpc::ReplyBadMethod(reply, method_id);
    }
  }

 private:
  void Play(int64_t from_position) {
    if (from_position >= 0 && from_position <= info_.size_bytes) {
      position_bytes_ = from_position;
    }
    played_ = true;
    mds_.Count("mds.play");
    ticker_.Stop();
    ticker_.Start(mds_.executor_, mds_.options_.chunk_period, [this] { Tick(); });
  }

  void Tick() {
    int64_t chunk =
        info_.bitrate_bps / 8 * mds_.options_.chunk_period.millis() / 1000;
    position_bytes_ += chunk;
    MediaSinkProxy sink(mds_.runtime_, sink_);
    if (position_bytes_ >= info_.size_bytes) {
      position_bytes_ = info_.size_bytes;
      ticker_.Stop();
      sink.OnEndOfStream(stream_id_).OnReady([](const Result<void>&) {});
      mds_.Count("mds.end_of_stream");
      return;
    }
    mds_.Count("mds.chunk_sent");
    sink.OnData(stream_id_, position_bytes_, static_cast<uint32_t>(chunk))
        .OnReady([](const Result<void>&) {});
  }

  MdsService& mds_;
  uint64_t stream_id_;
  MovieInfo info_;
  uint32_t settop_host_;
  ConnectionGrant connection_;
  wire::ObjectRef sink_;
  Time opened_at_;
  bool played_ = false;
  wire::ObjectRef ref_;
  int64_t position_bytes_ = 0;
  PeriodicTimer ticker_;
};

MdsService::MdsService(rpc::ObjectRuntime& runtime, Executor& executor,
                       std::vector<MovieInfo> library, Options options,
                       Metrics* metrics)
    : runtime_(runtime),
      executor_(executor),
      library_(std::move(library)),
      options_(options),
      metrics_(metrics),
      next_stream_id_(runtime.incarnation() << 20),
      load_seq_(runtime.incarnation() << 20) {
  if (!options_.unplayed_grace.is_zero()) {
    reclaim_timer_.Start(executor_, options_.unplayed_grace / 2,
                         [this] { ReclaimUnplayed(); });
  }
}

MdsService::~MdsService() = default;

const MovieInfo* MdsService::FindMovie(const std::string& title) const {
  for (const MovieInfo& movie : library_) {
    if (movie.title == title) {
      return &movie;
    }
  }
  return nullptr;
}

Result<MovieTicket> MdsService::HandleOpen(const std::string& title,
                                           uint32_t settop_host,
                                           const ConnectionGrant& connection,
                                           const wire::ObjectRef& sink) {
  const MovieInfo* movie = FindMovie(title);
  if (movie == nullptr) {
    return NotFoundError("movie not on this server: " + title);
  }
  if (reserved_bps_ + movie->bitrate_bps > options_.capacity_bps) {
    Count("mds.capacity_exhausted");
    return ResourceExhaustedError("media delivery capacity exhausted");
  }
  uint64_t stream_id = ++next_stream_id_;
  auto session = std::make_unique<MovieObject>(*this, stream_id, *movie,
                                               settop_host, connection, sink);
  MovieTicket ticket;
  ticket.stream_id = stream_id;
  ticket.movie = session->ref();
  reserved_bps_ += movie->bitrate_bps;
  ++load_seq_;
  sessions_[stream_id] = std::move(session);
  ticket.load = CurrentLoad();
  Count("mds.open");
  return ticket;
}

void MdsService::HandleClose(uint64_t stream_id) {
  auto it = sessions_.find(stream_id);
  if (it == sessions_.end()) {
    return;
  }
  reserved_bps_ -= it->second->info().bitrate_bps;
  ++load_seq_;
  sessions_.erase(it);
  Count("mds.close");
}

MdsLoad MdsService::CurrentLoad() const {
  MdsLoad load;
  load.active_streams = static_cast<uint32_t>(sessions_.size());
  load.reserved_bps = reserved_bps_;
  load.capacity_bps = options_.capacity_bps;
  load.seq = load_seq_;
  return load;
}

std::vector<SessionInfo> MdsService::DescribeSessions() const {
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    out.push_back(session->Describe());
  }
  return out;
}

void MdsService::ReclaimUnplayed() {
  Time now = executor_.Now();
  std::vector<uint64_t> ghosts;
  for (const auto& [id, session] : sessions_) {
    if (!session->played() &&
        now - session->opened_at() >= options_.unplayed_grace) {
      ghosts.push_back(id);
    }
  }
  for (uint64_t id : ghosts) {
    ITV_LOG(Info) << "mds: reclaiming never-played stream " << id
                  << " (title '" << sessions_[id]->info().title << "', opened "
                  << (now - sessions_[id]->opened_at()).ToString() << " ago)";
    Count("mds.unplayed_reclaimed");
    HandleClose(id);
  }
}

void MdsService::Dispatch(uint32_t method_id, const wire::Bytes& args,
                          const rpc::CallContext& ctx, rpc::ReplyFn reply) {
  switch (method_id) {
    case kMdsMethodOpen: {
      std::string title;
      uint32_t settop_host = 0;
      ConnectionGrant connection;
      wire::ObjectRef sink;
      if (!rpc::DecodeArgs(args, &title, &settop_host, &connection, &sink)) {
        return rpc::ReplyBadArgs(reply);
      }
      Result<MovieTicket> ticket = HandleOpen(title, settop_host, connection, sink);
      if (!ticket.ok()) {
        return rpc::ReplyError(reply, ticket.status());
      }
      return rpc::ReplyWith(reply, *ticket);
    }
    case kMdsMethodSync:
      return rpc::ReplyWith(
          reply, MdsSync{library_, CurrentLoad(), DescribeSessions()});
    case kMdsMethodClose: {
      uint64_t stream_id = 0;
      if (!rpc::DecodeArgs(args, &stream_id)) {
        return rpc::ReplyBadArgs(reply);
      }
      HandleClose(stream_id);
      return rpc::ReplyWith(reply, CurrentLoad());
    }
    default:
      return rpc::ReplyBadMethod(reply, method_id);
  }
}

void MdsService::Count(std::string_view name) {
  if (metrics_ != nullptr) {
    metrics_->Add(name);
  }
}

}  // namespace itv::media
