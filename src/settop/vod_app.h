// Video-on-demand application (paper Sections 3.4.4-3.5.2): the settop half
// of playing a movie.
//
//   - Resolves the MMS once and opens the movie; invokes play on the movie
//     object the MMS returns.
//   - Tracks the play position locally ("the Video on Demand service...
//     maintains information about the current point in movie play both in
//     the settop and in its own service", Section 10.1.1) — here the settop
//     side, used to resume after failures.
//   - Detects MDS/server crashes by the data stream going quiet
//     (Section 3.5.2) and "recovers by closing the original movie and then
//     asking MMS to open the movie again", resuming at the saved position.

#ifndef SRC_SETTOP_VOD_APP_H_
#define SRC_SETTOP_VOD_APP_H_

#include <memory>
#include <optional>
#include <string>

#include "src/common/executor.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/load/load_board.h"
#include "src/media/mms.h"
#include "src/naming/name_client.h"
#include "src/rpc/binding_table.h"

namespace itv::settop {

class VodApp {
 public:
  struct Options {
    // How long without OnData before the app declares the stream dead. The
    // MDS sends every 500 ms by default, so 2 s = four missed chunks.
    Duration data_gap_timeout = Duration::Seconds(2);
    rpc::BindingOptions mms_rebind;
    // Shard-aware placement (ROADMAP "Shard-aware admission"): when set, an
    // open the home MMS shard sheds with RESOURCE_EXHAUSTED is retried once
    // against the sibling shard with the most load-board headroom. Empty
    // disables the retry (the shed error surfaces directly).
    std::string load_board_path;
  };

  VodApp(rpc::ObjectRuntime& runtime, Executor& executor,
         naming::NameClient name_client, Options options,
         Metrics* metrics = nullptr);
  ~VodApp();

  // Opens and plays `title` until the end of stream (or Stop). `done` fires
  // with OK at end-of-stream, or the final error if recovery fails.
  void PlayMovie(const std::string& title, std::function<void(Status)> done);

  // Viewer stops: closes the movie through the MMS (paper Section 3.4.5).
  void Stop();

  bool playing() const { return playing_; }
  int64_t position_bytes() const { return position_bytes_; }
  uint32_t reopen_count() const { return reopen_count_; }
  uint32_t sibling_retries() const { return sibling_retries_; }
  uint64_t chunks_received() const { return chunks_received_; }
  uint64_t session_id() const { return session_id_; }
  // Which server is currently streaming (0 = none).
  uint32_t mds_host() const { return mds_host_; }

 private:
  class MediaSinkSkeleton;

  void OpenAndPlay(int64_t from_position);
  // One open attempt: hashed home-shard route when `shard` is empty, or the
  // explicit sibling shard a shed open retries against.
  void OpenAttempt(int64_t from_position, std::optional<uint32_t> shard);
  // Reads the load board and retries the open against the sibling shard with
  // the most headroom; finishes with `original` if none has any.
  void RetrySibling(int64_t from_position, Status original);
  void OnData(uint64_t stream_id, int64_t position, uint32_t chunk);
  void OnEndOfStream(uint64_t stream_id);
  void OnDataGap();
  void CloseSession();
  // Closes `movie` against the shard that opened it (explicit sibling or
  // hashed home); a NOT_FOUND from a sibling means the session was already
  // handed off to the home shard, so the close is retried there.
  void CloseVia(std::optional<uint32_t> shard, const wire::ObjectRef& movie);
  void Finish(Status status);

  rpc::ObjectRuntime& runtime_;
  Executor& executor_;
  naming::NameClient name_client_;
  Options options_;
  Metrics* metrics_;

  rpc::BindingTable bindings_;
  // Routed by this settop's own host id: all of one settop's sessions land on
  // the same MMS shard, and unsharded deployments route to svc/mms unchanged.
  rpc::BoundClient<media::MmsProxy> mms_;
  std::unique_ptr<MediaSinkSkeleton> sink_;
  wire::ObjectRef sink_ref_;

  std::string title_;
  std::function<void(Status)> done_;
  bool playing_ = false;
  uint64_t session_id_ = 0;
  uint64_t stream_id_ = 0;
  wire::ObjectRef movie_;
  // Shard the current session was opened on (empty = hashed home shard);
  // closes go back through it until the reshard-style handoff completes.
  std::optional<uint32_t> session_shard_;
  bool sibling_retried_ = false;
  int64_t position_bytes_ = 0;
  uint32_t reopen_count_ = 0;
  uint32_t sibling_retries_ = 0;
  uint64_t chunks_received_ = 0;
  uint32_t mds_host_ = 0;
  TimerId gap_timer_ = kInvalidTimerId;
  // Trace of an in-progress reopen: rooted when a data gap is detected,
  // closed (as the vod.reopen span) when playback resumes.
  trace::TraceContext reopen_ctx_;
  Time reopen_begin_;
};

}  // namespace itv::settop

#endif  // SRC_SETTOP_VOD_APP_H_
