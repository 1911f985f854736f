#include "src/memcache/connection.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <vector>

namespace rp::memcache {

namespace {

StoreKind StoreKindOf(Op op) {
  switch (op) {
    case Op::kDelete:
      return StoreKind::kDelete;
    case Op::kSet:
      return StoreKind::kSet;
    case Op::kAdd:
      return StoreKind::kAdd;
    case Op::kReplace:
      return StoreKind::kReplace;
    case Op::kAppend:
      return StoreKind::kAppend;
    case Op::kPrepend:
      return StoreKind::kPrepend;
    default:
      return StoreKind::kCas;
  }
}

// ms/md → StoreKind: md is a delete; ms maps its M<mode> onto the classic
// store kinds (E=add, A=append, P=prepend, R=replace, S/absent=set), and a
// C<cas> compare turns it into a cas store (the parser rejects C combined
// with any non-set mode).
StoreKind MetaStoreKind(const Request& request) {
  if (request.op == Op::kMetaDelete) {
    return StoreKind::kDelete;
  }
  if (request.meta.has_cas_compare) {
    return StoreKind::kCas;
  }
  switch (request.meta.mode) {
    case 'E':
      return StoreKind::kAdd;
    case 'A':
      return StoreKind::kAppend;
    case 'P':
      return StoreKind::kPrepend;
    case 'R':
      return StoreKind::kReplace;
    default:
      return StoreKind::kSet;  // 'S' or no mode flag
  }
}

// The thread's GET scratch, shared by classic get/gets and every mg batch:
// the key views, the result slots and the value bytes themselves, reused
// across requests so a steady-state GET allocates nothing here. Results
// reference `values` by offset, so it may grow mid-request (a vivified mg
// re-read appends after the batch) without invalidating earlier hits. Safe
// because neither ExecuteRequest's get nor ExecuteMetaGetBatch re-enters
// itself or the other.
struct GetScratch {
  std::vector<std::string_view> keys;
  std::vector<ScratchGetResult> results;
  std::string values;

  std::string_view value(const ScratchGetResult& r) const {
    return std::string_view(values.data() + r.data_offset, r.data_size);
  }
};

GetScratch& ThreadGetScratch() {
  static thread_local GetScratch scratch;
  return scratch;
}

// The one GET path: ONE engine.GetManyScratch for every key in
// scratch.keys. On the RP engine that is one epoch read section per shard
// group, and each hit is copied straight into scratch.values inside it;
// the only copy after that is the append into the output buffer.
void FetchKeys(CacheEngine& engine, GetScratch& scratch) {
  if (scratch.results.size() < scratch.keys.size()) {
    scratch.results.resize(scratch.keys.size());
  }
  scratch.values.clear();
  engine.GetManyScratch(scratch.keys.data(), scratch.keys.size(),
                        scratch.results.data(), &scratch.values);
}

}  // namespace

std::int64_t MonotonicMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ExecuteRequest(CacheEngine& engine, const Request& request,
                    std::string* out, bool* quit,
                    const ServerConnectionStats* conn_stats) {
  *quit = false;
  switch (request.op) {
    case Op::kGet:
    case Op::kGets: {
      // Every get is a batch, a lone key a batch of one, as mg and every
      // store are. Keys go down as string_views over the parsed request;
      // responses go out in request order, misses silently skipped.
      const bool with_cas = request.op == Op::kGets;
      GetScratch& scratch = ThreadGetScratch();
      scratch.keys.assign(request.keys.begin(), request.keys.end());
      FetchKeys(engine, scratch);
      for (std::size_t i = 0; i < request.keys.size(); ++i) {
        const ScratchGetResult& r = scratch.results[i];
        if (r.hit) {
          AppendValueResponse(out, request.keys[i], scratch.value(r), r.flags,
                              r.cas, with_cas);
        }
      }
      out->append(kResponseEnd);
      return;
    }
    case Op::kVersion:
      AppendVersionResponse(out, kServerVersion);
      return;
    case Op::kStats: {
      const EngineStats stats = engine.Stats();
      AppendStat(out, "engine", engine.Name());
      AppendStat(out, "get_hits", stats.get_hits);
      AppendStat(out, "get_misses", stats.get_misses);
      AppendStat(out, "cmd_set", stats.sets);
      AppendStat(out, "evictions", stats.evictions);
      AppendStat(out, "expired_unfetched", stats.expired_reclaims);
      AppendStat(out, "curr_items", stats.items);
      AppendStat(out, "total_items", stats.total_items);
      AppendStat(out, "bytes", stats.bytes);
      // Exact-accounting extras: the slab-fragmentation share of `bytes`,
      // page memory the slab arenas hold, and how often the pool was dry
      // enough to fall back to the heap.
      AppendStat(out, "bytes_wasted", stats.bytes_wasted);
      AppendStat(out, "slab_reserved", stats.slab_reserved);
      AppendStat(out, "slab_fallbacks", stats.slab_fallbacks);
      // Batched-store observability: StoreMany calls that carried 2+ ops,
      // and the ops they carried (see docs/PROTOCOL.md).
      AppendStat(out, "store_batches", stats.store_batches);
      AppendStat(out, "store_batched_ops", stats.store_batched_ops);
      // Maintenance-plane observability (see docs/PROTOCOL.md): write
      // combining, slab automove, expired-item crawl, and the health of
      // the process-wide deferred reclaimer.
      AppendStat(out, "set_combines", stats.set_combines);
      AppendStat(out, "slab_pages_moved", stats.slab_pages_moved);
      AppendStat(out, "crawler_reclaims", stats.crawler_reclaims);
      AppendStat(out, "reclaimer_pending", stats.reclaimer_pending);
      AppendStat(out, "reclaimer_wakeups", stats.reclaimer_wakeups);
      // Meta-protocol command counters (see docs/PROTOCOL.md): one bump
      // per meta request executed, counted at the dispatch layer.
      AppendStat(out, "cmd_mg", stats.cmd_mg);
      AppendStat(out, "cmd_ms", stats.cmd_ms);
      AppendStat(out, "cmd_md", stats.cmd_md);
      AppendStat(out, "cmd_ma", stats.cmd_ma);
      AppendStat(out, "limit_maxbytes", stats.limit_maxbytes);
      if (conn_stats != nullptr) {
        AppendStat(out, "curr_connections", conn_stats->curr_connections);
        AppendStat(out, "total_connections", conn_stats->total_connections);
      }
      out->append(kResponseEnd);
      return;
    }
    case Op::kQuit:
      *quit = true;
      return;
    case Op::kMetaNoop:
      // Pipeline barrier: always answers, so a blocking client can bound a
      // quiet run (`mg..q ×k, mn`) and know every response has arrived.
      out->append(kResponseMetaNoop);
      return;
    case Op::kMetaGet:
      // A lone mg is just a batch of one — same scratch path, same
      // response assembly, so singleton and pipelined mg agree byte for
      // byte.
      ExecuteMetaGetBatch(engine, &request, 1, out);
      return;
    case Op::kSet:
    case Op::kAdd:
    case Op::kReplace:
    case Op::kAppend:
    case Op::kPrepend:
    case Op::kCas:
    case Op::kDelete:
    case Op::kMetaSet:
    case Op::kMetaDelete:
      // Every store and delete is a batch of one: the shared StoreOp
      // mapping, one engine.StoreMany, one response codec — so singleton
      // and pipelined stores agree byte for byte.
      ExecuteStoreBatch(engine, &request, 1, out);
      return;
    case Op::kMetaArith: {
      engine.CountMetaCommand(CacheEngine::MetaCmd::kArith);
      const bool incr = request.meta.mode == 0 || request.meta.mode == 'I' ||
                        request.meta.mode == '+';
      ArithResult result = incr ? engine.Incr(request.keys[0], request.delta)
                                : engine.Decr(request.keys[0], request.delta);
      if (result.status == ArithStatus::kNotFound && request.meta.has_vivify) {
        // Autovivify (N with optional J seed): the seeded value IS the
        // answer — no delta applied on the vivifying op (memcached rule).
        // Losing the add race means someone else vivified; retry the op
        // against their value.
        const std::string init = std::to_string(request.meta.init_value);
        if (engine.Add(request.keys[0], init, 0, request.meta.vivify_ttl) ==
            StoreResult::kStored) {
          result.status = ArithStatus::kOk;
          result.value = request.meta.init_value;
        } else {
          result = incr ? engine.Incr(request.keys[0], request.delta)
                        : engine.Decr(request.keys[0], request.delta);
        }
      }
      if (result.ok() && request.meta.has_exptime) {
        engine.Touch(request.keys[0], request.exptime);  // ma T<ttl>
      }
      AppendMetaArithResponse(out, request.keys[0], request, result);
      return;
    }
    default:
      break;
  }

  // Single-token commands. They all honour noreply: the response is
  // assembled in place and truncated away when suppressed (cheaper than a
  // temporary string on the common non-noreply path).
  const std::size_t mark = out->size();
  switch (request.op) {
    case Op::kIncr:
    case Op::kDecr: {
      const ArithResult result =
          request.op == Op::kIncr ? engine.Incr(request.keys[0], request.delta)
                                  : engine.Decr(request.keys[0], request.delta);
      switch (result.status) {
        case ArithStatus::kOk:
          AppendNumberResponse(out, result.value);
          break;
        case ArithStatus::kNotFound:
          out->append(kResponseNotFound);
          break;
        case ArithStatus::kNonNumeric:
          AppendClientError(out, kNonNumericMessage);
          break;
      }
      break;
    }
    case Op::kTouch:
      out->append(engine.Touch(request.keys[0], request.exptime)
                      ? kResponseTouched
                      : kResponseNotFound);
      break;
    case Op::kFlushAll:
      engine.FlushAll(request.exptime);  // exptime carries the [delay] arg
      out->append(kResponseOk);
      break;
    default:
      break;  // multi-part ops handled above
  }
  if (request.noreply) {
    out->resize(mark);
  }
}

bool IsBatchableStore(const Request& request) {
  switch (request.op) {
    case Op::kSet:
    case Op::kAdd:
    case Op::kReplace:
    case Op::kAppend:
    case Op::kPrepend:
    case Op::kCas:
    case Op::kMetaSet:
    case Op::kMetaDelete:
      return request.keys.size() == 1;
    default:
      return false;
  }
}

void ExecuteStoreBatch(CacheEngine& engine, const Request* requests,
                       std::size_t count, std::string* out) {
  // Thread-local slots reused across bursts: a steady-state burst (a lone
  // store included) neither allocates nor re-initializes them. Safe
  // because this function never re-enters itself.
  static thread_local std::vector<StoreOp> ops;
  static thread_local std::vector<StoreResult> results;
  if (ops.size() < count) {
    ops.resize(count);
    results.resize(count);
  }
  std::uint64_t meta_sets = 0;
  std::uint64_t meta_deletes = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Request& request = requests[i];
    StoreOp& op = ops[i];
    if (IsMetaOp(request.op)) {
      op.kind = MetaStoreKind(request);
      if (request.op == Op::kMetaSet) {
        ++meta_sets;
      } else {
        ++meta_deletes;
      }
    } else {
      op.kind = StoreKindOf(request.op);
    }
    op.key = request.keys[0];
    op.data = request.data;
    op.flags = request.flags;
    op.exptime = request.exptime;
    op.cas = request.cas;
  }
  engine.StoreMany(ops.data(), count, results.data());
  if (meta_sets != 0) {
    engine.CountMetaCommand(CacheEngine::MetaCmd::kSet, meta_sets);
  }
  if (meta_deletes != 0) {
    engine.CountMetaCommand(CacheEngine::MetaCmd::kDelete, meta_deletes);
  }
  // Wire responses: set always reports STORED, cas distinguishes EXISTS
  // from NOT_FOUND, delete answers DELETED/NOT_FOUND, the rest map
  // kStored/!kStored to STORED/NOT_STORED. Meta requests answer
  // in meta grammar over the same StoreResult (q suppresses bare HD;
  // failures always answer).
  for (std::size_t i = 0; i < count; ++i) {
    if (IsMetaOp(requests[i].op)) {
      AppendMetaStoreResponse(out, requests[i].keys[0], requests[i],
                              results[i]);
      continue;
    }
    if (requests[i].noreply) {
      continue;
    }
    switch (ops[i].kind) {
      case StoreKind::kSet:
        out->append(kResponseStored);
        break;
      case StoreKind::kDelete:
        out->append(results[i] == StoreResult::kStored ? kResponseDeleted
                                                       : kResponseNotFound);
        break;
      case StoreKind::kCas:
        switch (results[i]) {
          case StoreResult::kStored:
            out->append(kResponseStored);
            break;
          case StoreResult::kExists:
            out->append(kResponseExists);
            break;
          default:
            out->append(kResponseNotFound);
            break;
        }
        break;
      default:
        out->append(results[i] == StoreResult::kStored ? kResponseStored
                                                       : kResponseNotStored);
        break;
    }
  }
}

void ExecuteMetaGetBatch(CacheEngine& engine, const Request* requests,
                         std::size_t count, std::string* out) {
  if (count == 0) {
    return;
  }
  GetScratch& scratch = ThreadGetScratch();
  scratch.keys.clear();
  for (std::size_t i = 0; i < count; ++i) {
    scratch.keys.push_back(requests[i].keys[0]);
  }
  // ONE engine call for the whole quiet run.
  FetchKeys(engine, scratch);
  engine.CountMetaCommand(CacheEngine::MetaCmd::kGet, count);
  const std::int64_t now = NowSeconds();
  for (std::size_t i = 0; i < count; ++i) {
    const Request& request = requests[i];
    ScratchGetResult& r = scratch.results[i];
    if (!r.hit && request.meta.has_vivify) {
      // mg N<ttl>: a miss autovivifies an empty value and answers as a
      // hit. Add, then re-read the key straight into its slot: losing the
      // add race just means another client vivified first — their value
      // is the answer either way.
      engine.Add(request.keys[0], "", 0, request.meta.vivify_ttl);
      engine.GetManyScratch(&scratch.keys[i], 1, &r, &scratch.values);
    }
    if (r.hit && request.meta.has_exptime) {
      // mg T<ttl>: touch rides the get; the t response flag reports the
      // NEW deadline.
      if (engine.Touch(request.keys[0], request.exptime)) {
        r.expire_at = ResolveExptime(request.exptime, now);
      }
    }
    AppendMetaGetResponse(out, request.keys[0], request, r, scratch.value(r),
                          now);
  }
}

RequestHandler::~RequestHandler() = default;

std::unique_ptr<WorkerAgent> RequestHandler::AttachWorker(WorkerContext&) {
  return nullptr;
}

WorkerAgent::~WorkerAgent() = default;

void EngineHandler::Execute(const Request& request, std::string* out,
                            bool* quit,
                            const ServerConnectionStats* conn_stats) {
  ExecuteRequest(engine_, request, out, quit, conn_stats);
}

void EngineHandler::ExecuteStores(const Request* requests, std::size_t count,
                                  std::string* out) {
  ExecuteStoreBatch(engine_, requests, count, out);
}

void EngineHandler::ExecuteMetaGets(const Request* requests, std::size_t count,
                                    std::string* out) {
  ExecuteMetaGetBatch(engine_, requests, count, out);
}

Connection::Connection(int fd, RequestHandler& handler, WorkerAgent* agent,
                       std::size_t write_high_water,
                       ConnectionCounters* counters)
    : fd_(fd),
      handler_(handler),
      agent_(agent),
      write_high_water_(write_high_water),
      counters_(counters),
      last_active_ms_(MonotonicMs()) {}

Connection::~Connection() {
  for (Slot& slot : slots_) {
    if (slot.owner != nullptr) {
      slot.owner->Abandon();
    }
  }
  ::close(fd_);
  if (counters_ != nullptr) {
    counters_->current.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool Connection::OnReadable() {
  last_active_ms_ = MonotonicMs();
  char buf[16 * 1024];
  // Drain the socket, executing after each chunk so the backpressure check
  // sees the output produced so far: a pipelined blast stops being read
  // (and stops being executed) the moment its responses cross the
  // high-water mark, and TCP flow control pushes back on the client.
  while (wants_read()) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      parser_.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
      deferred_work_ = ExecuteBuffered();
      if (static_cast<std::size_t>(n) < sizeof(buf)) {
        break;  // socket drained (level-triggered epoll re-arms if not)
      }
      continue;
    }
    if (n == 0) {
      peer_eof_ = true;  // answer what we already read, flush, then close
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    return false;  // fatal socket error
  }
  if (!Pump()) {
    return false;
  }
  return !finished();
}

bool Connection::OnWritable() {
  last_active_ms_ = MonotonicMs();
  return Resume();
}

bool Connection::Resume() {
  if (!Pump()) {
    return false;
  }
  return !finished();
}

std::string* Connection::Output() {
  if (slots_.empty()) {
    return &out_;
  }
  slots_.emplace_back();  // released from the start, leaves in its turn
  return &slots_.back().bytes;
}

Connection::Slot* Connection::Park(ParkedRequest* owner) {
  slots_.push_back(Slot{std::string(), owner});
  ++parked_;
  return &slots_.back();
}

void Connection::Release(Slot* slot) {
  slot->owner = nullptr;
  --parked_;
  while (!slots_.empty() && slots_.front().owner == nullptr) {
    out_.append(slots_.front().bytes);
    slots_.pop_front();
  }
}

bool Connection::Pump() {
  for (;;) {
    if (!FlushOutput()) {
      return false;
    }
    if (!deferred_work_ || close_after_flush_) {
      return true;
    }
    if (stalled()) {
      return true;  // still jammed: the next EPOLLOUT or release pumps again
    }
    deferred_work_ = ExecuteBuffered();
  }
}

bool Connection::ExecuteBuffered() {
  ServerConnectionStats snapshot;
  while (!close_after_flush_) {
    if (stalled()) {
      // Backpressure applies between pipelined requests too, or one read
      // chunk full of multi-gets could buffer responses without bound.
      // (A single response still buffers whole, however large.) So does
      // the bound on parked responses.
      FlushStoreBatch();  // the parser already consumed these; answer them
      FlushMetaGetBatch();
      UpdateBackpressure();
      return true;
    }
    Request request;
    const ParseStatus status = parser_.Next(&request);
    if (status == ParseStatus::kNeedMore) {
      break;
    }
    if (status == ParseStatus::kError) {
      FlushStoreBatch();  // burst responses precede the error, in order
      FlushMetaGetBatch();
      AppendClientError(Output(), parser_.error_message());
      continue;
    }
    if (request.op == Op::kMetaGet) {
      // Collect the pipelined mg run; it executes as one GetManyScratch
      // (one epoch section per shard group) when it ends — this is what
      // turns `mg <key> q`×k into classic-multiget engine cost.
      FlushStoreBatch();  // an mg ends any store burst
      meta_get_batch_.push_back(std::move(request));
      if (meta_get_batch_.size() >= kMaxStoreBatch) {
        FlushMetaGetBatch();
      }
      continue;
    }
    if (IsBatchableStore(request)) {
      // Collect the pipelined store burst; it executes as one StoreMany
      // (one store-mutex acquisition per shard group) when it ends.
      FlushMetaGetBatch();  // a store ends any mg burst
      store_batch_.push_back(std::move(request));
      if (store_batch_.size() >= kMaxStoreBatch) {
        FlushStoreBatch();
      }
      continue;
    }
    FlushStoreBatch();  // any other request ends both bursts
    FlushMetaGetBatch();
    const ServerConnectionStats* conn_stats = nullptr;
    if (request.op == Op::kStats && counters_ != nullptr) {
      snapshot.curr_connections =
          counters_->current.load(std::memory_order_relaxed);
      snapshot.total_connections =
          counters_->total.load(std::memory_order_relaxed);
      conn_stats = &snapshot;
    }
    bool quit = false;
    if (agent_ != nullptr) {
      agent_->Execute(request, *this, &quit, conn_stats);
    } else {
      handler_.Execute(request, &out_, &quit, conn_stats);
    }
    if (quit) {
      // Later pipelined requests are dropped, but responses already in
      // out_ still flush before the close.
      close_after_flush_ = true;
    }
  }
  FlushStoreBatch();  // input exhausted (or quit): answer what we have
  FlushMetaGetBatch();
  UpdateBackpressure();
  return false;
}

void Connection::FlushStoreBatch() {
  if (store_batch_.empty()) {
    return;
  }
  if (agent_ != nullptr) {
    agent_->ExecuteStores(store_batch_, *this);
  } else {
    handler_.ExecuteStores(store_batch_.data(), store_batch_.size(), &out_);
  }
  store_batch_.clear();
}

void Connection::FlushMetaGetBatch() {
  if (meta_get_batch_.empty()) {
    return;
  }
  if (agent_ != nullptr) {
    agent_->ExecuteMetaGets(meta_get_batch_, *this);
  } else {
    handler_.ExecuteMetaGets(meta_get_batch_.data(), meta_get_batch_.size(),
                             &out_);
  }
  meta_get_batch_.clear();
}

bool Connection::FlushOutput() {
  while (out_sent_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_sent_,
                             out_.size() - out_sent_, MSG_NOSIGNAL);
    if (n > 0) {
      out_sent_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;  // kernel buffer full; EPOLLOUT resumes the drain
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;  // peer reset / broken pipe
  }
  if (out_sent_ == out_.size()) {
    out_.clear();
    out_sent_ = 0;
  } else if (out_sent_ >= (1u << 16) && out_sent_ >= out_.size() / 2) {
    // Large flushed prefix: reclaim it so a long-lived slow reader doesn't
    // pin the connection's peak buffer forever.
    out_.erase(0, out_sent_);
    out_sent_ = 0;
  }
  UpdateBackpressure();
  return true;
}

void Connection::UpdateBackpressure() {
  const std::size_t pending = pending_output();
  if (!reads_paused_ && pending > write_high_water_) {
    reads_paused_ = true;
  } else if (reads_paused_ && pending <= write_high_water_ / 2) {
    // Hysteresis: resume at half the mark so a connection hovering at the
    // boundary doesn't thrash its epoll interest.
    reads_paused_ = false;
  }
}

}  // namespace rp::memcache
