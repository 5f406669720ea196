/**
 * @file
 * Executor: the host execution engine behind every concurrent part of
 * the pipeline.
 *
 * One persistent worker pool with a bounded MPMC task queue replaces
 * the three ad-hoc threading idioms the host side grew — thread-per-
 * epoch std::async in the recorder, a throwaway std::thread pool per
 * replayParallel call, and journal appends serialized on the
 * thread-parallel critical path. Consumers submit typed tasks and get
 * typed futures back; tasks can carry a cancellation token (a
 * divergence squash cancels queued-but-unstarted epochs instead of
 * executing them), exceptions propagate through get(), and the
 * destructor deterministically drains the queue and joins every
 * worker before returning. Executor::Strand layers the one
 * order-keeping serial consumer on top (journal commits, standby
 * applies).
 *
 * Determinism contract: the executor schedules host work only; it
 * never touches virtual time, recorded bytes, or fault decisions.
 * For fixed options, recordings and journals are byte-identical
 * across any worker count, including the inline mode (workers == 0:
 * submit() runs the task on the caller's thread and spawns nothing) —
 * pinned by exec_test and trace_test.
 *
 * Trace integration: with a sink attached the pool emits one
 * "worker-start"/"worker-exit" instant per spawned worker and one
 * span per executed task on TraceStage::Exec, tid = worker index —
 * one clean Perfetto track per host worker. Observe-only, never read
 * back.
 */

#ifndef DP_EXEC_EXECUTOR_HH
#define DP_EXEC_EXECUTOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "trace/json.hh"

namespace dp
{

class TraceRecorder;

/** Thrown by TaskFuture::get() when the task was cancelled before a
 *  worker picked it up (it never executed). */
class TaskCancelled : public std::exception
{
  public:
    const char *
    what() const noexcept override
    {
        return "task cancelled before execution";
    }
};

/** Lifecycle of a submitted task. */
enum class TaskState : std::uint8_t
{
    Pending,   ///< queued, no worker has claimed it
    Running,   ///< a worker is executing it
    Done,      ///< finished; the future holds the value
    Cancelled, ///< token fired before execution; never ran
    Failed,    ///< the task body threw; the future holds the exception
};

/** Stable human-readable name of @p s (e.g. "cancelled"). */
const char *taskStateName(TaskState s);

/**
 * Read side of a cancellation flag. Cheap to copy; shared with the
 * CancellationSource that controls it. A default-constructed token is
 * "never cancelled".
 */
class CancellationToken
{
  public:
    CancellationToken() = default;

    /** True once the owning source fired. */
    bool
    cancelled() const
    {
        return flag_ && flag_->load(std::memory_order_acquire);
    }

  private:
    friend class CancellationSource;
    explicit CancellationToken(
        std::shared_ptr<std::atomic<bool>> flag)
        : flag_(std::move(flag))
    {}

    std::shared_ptr<std::atomic<bool>> flag_;
};

/** Write side of a cancellation flag. cancel() is idempotent and safe
 *  from any thread; it only prevents *unstarted* tasks from running —
 *  a task already executing runs to completion. */
class CancellationSource
{
  public:
    CancellationSource()
        : flag_(std::make_shared<std::atomic<bool>>(false))
    {}

    void
    cancel()
    {
        flag_->store(true, std::memory_order_release);
    }

    bool
    cancelled() const
    {
        return flag_->load(std::memory_order_acquire);
    }

    CancellationToken token() const { return CancellationToken(flag_); }

  private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

namespace exec_detail
{

struct SharedStateBase
{
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    TaskState state = TaskState::Pending;
    std::exception_ptr error;

    bool
    terminal() const
    {
        return state == TaskState::Done ||
               state == TaskState::Cancelled ||
               state == TaskState::Failed;
    }

    void
    finish(TaskState s, std::exception_ptr e = nullptr)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            state = s;
            error = std::move(e);
        }
        cv.notify_all();
    }

    void
    wait() const
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return terminal(); });
    }
};

template <typename T> struct SharedState : SharedStateBase
{
    std::optional<T> value;
};

template <> struct SharedState<void> : SharedStateBase
{};

} // namespace exec_detail

/**
 * Typed handle to a submitted task. wait() blocks until the task
 * reaches a terminal state; get() additionally returns the value,
 * rethrows the task's exception, or throws TaskCancelled. Futures are
 * cheap to move and copy (shared state); dropping every future never
 * blocks — the Executor's destructor is the drain point.
 */
template <typename T> class TaskFuture
{
  public:
    TaskFuture() = default;

    bool valid() const { return state_ != nullptr; }

    /** Block until the task finished, was cancelled, or failed. */
    void wait() const { state_->wait(); }

    /** Current lifecycle state (racy snapshot unless terminal). */
    TaskState
    state() const
    {
        std::lock_guard<std::mutex> lock(state_->mu);
        return state_->state;
    }

    /** True iff the task was squashed before it ever ran. */
    bool
    cancelled() const
    {
        return state() == TaskState::Cancelled;
    }

    /** Wait, then yield the result (throws TaskCancelled / rethrows
     *  the task's exception). */
    T
    get() const
    {
        state_->wait();
        std::lock_guard<std::mutex> lock(state_->mu);
        if (state_->state == TaskState::Cancelled)
            throw TaskCancelled{};
        if (state_->state == TaskState::Failed)
            std::rethrow_exception(state_->error);
        if constexpr (!std::is_void_v<T>)
            return std::move(*state_->value);
    }

  private:
    friend class Executor;
    explicit TaskFuture(
        std::shared_ptr<exec_detail::SharedState<T>> s)
        : state_(std::move(s))
    {}

    std::shared_ptr<exec_detail::SharedState<T>> state_;
};

/** Worker-side view of the task being executed. */
struct TaskContext
{
    /** Index of the executing worker (0 on the inline path). */
    unsigned worker = 0;
};

/** Per-task submission options. */
struct TaskOptions
{
    /** Cancellation token; a fired token prevents execution of a
     *  still-queued task (its future reports Cancelled). */
    CancellationToken token = {};
    /** Static label for the task's trace span ("task" default). Must
     *  be a string literal / static string — never freed. */
    const char *label = "task";
};

/** Pool-wide configuration. */
struct ExecutorOptions
{
    /** Bounded task-queue capacity; submit() blocks (back-pressure)
     *  while the queue holds this many unclaimed tasks. */
    std::size_t queueCapacity = 64;
    /** Observability sink (nullptr = off, the zero-work default). */
    TraceRecorder *trace = nullptr;
};

/** Monotonic counters describing a pool's lifetime (all totals). */
struct ExecutorStats
{
    std::uint64_t workers = 0;        ///< configured pool size
    std::uint64_t threadsSpawned = 0; ///< OS threads ever created
    std::uint64_t tasksSubmitted = 0;
    std::uint64_t tasksExecuted = 0;  ///< ran to completion or threw
    std::uint64_t tasksCancelled = 0; ///< squashed before execution
    std::uint64_t tasksFailed = 0;    ///< executed and threw
    std::uint64_t peakQueueDepth = 0;
    std::uint64_t backpressureWaits = 0; ///< submits that had to block
};

/**
 * The persistent worker pool. Spawns its workers eagerly at
 * construction (workers == 0 spawns nothing: submit() executes
 * inline), executes tasks in FIFO submission order, and joins
 * deterministically on destruction: every task already submitted is
 * executed (or observed cancelled) before the destructor returns.
 */
class Executor
{
    /** Uniform invocation: tasks may take the TaskContext or not.
     *  (Declared first — submit()'s return type names it.) */
    template <typename F>
    static auto
    invokeTask(F &fn, const TaskContext &ctx)
    {
        if constexpr (std::is_invocable_v<F &, const TaskContext &>)
            return fn(ctx);
        else
            return fn();
    }

  public:
    template <typename T> class Strand;

    explicit Executor(unsigned workers, ExecutorOptions opts = {});
    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;
    /** Drains the queue, then joins every worker. */
    ~Executor();

    /**
     * Submit @p fn — invocable as fn(const TaskContext &) or fn() —
     * returning a typed future. Blocks while the queue is at
     * capacity. With zero workers the task executes on the calling
     * thread before submit returns (cancellation still honoured).
     */
    template <typename F>
    auto
    submit(F &&fn, TaskOptions opts = {})
        -> TaskFuture<decltype(invokeTask(fn, TaskContext{}))>
    {
        using R = decltype(invokeTask(fn, TaskContext{}));
        auto state =
            std::make_shared<exec_detail::SharedState<R>>();
        auto run = [state, fn = std::forward<F>(fn)](
                       const TaskContext &ctx) mutable -> TaskState {
            {
                std::lock_guard<std::mutex> lock(state->mu);
                state->state = TaskState::Running;
            }
            try {
                if constexpr (std::is_void_v<R>)
                    invokeTask(fn, ctx);
                else
                    state->value.emplace(invokeTask(fn, ctx));
                state->finish(TaskState::Done);
                return TaskState::Done;
            } catch (...) {
                state->finish(TaskState::Failed,
                              std::current_exception());
                return TaskState::Failed;
            }
        };
        auto drop = [state] { state->finish(TaskState::Cancelled); };
        enqueue(std::move(run), std::move(drop), opts);
        return TaskFuture<R>(std::move(state));
    }

    /** Block until every submitted task reached a terminal state.
     *  (Const: draining observes the pool, it never changes what will
     *  have been executed.) */
    void drain() const;

    /** Configured pool size (0 = inline mode). */
    unsigned workerCount() const { return workers_; }

    /** Counter snapshot (safe while the pool runs). */
    ExecutorStats stats() const;

    /** Stats as a "dp-exec-v1" JSON document — the machine-readable
     *  spawn-counter contract ("no thread-per-epoch") tests and tools
     *  check. */
    JsonValue metricsSnapshot() const;

  private:
    struct QueuedTask
    {
        /** Execute the task; reports Done or Failed (the task's own
         *  exception is parked in its shared state, never thrown
         *  across the worker loop). */
        std::function<TaskState(const TaskContext &)> run;
        /** Mark the task cancelled without executing it. */
        std::function<void()> drop;
        CancellationToken token;
        const char *label = "task";
    };

    void enqueue(std::function<TaskState(const TaskContext &)> run,
                 std::function<void()> drop,
                 const TaskOptions &opts);
    /** Run or drop @p t on @p worker, then retire it. */
    void dispatch(QueuedTask t, unsigned worker);
    void workerLoop(unsigned index);

    const unsigned workers_;
    const std::size_t capacity_;
    TraceRecorder *const trace_;

    mutable std::mutex mu_;
    mutable std::condition_variable notEmpty_;
    mutable std::condition_variable notFull_;
    mutable std::condition_variable idle_;
    std::deque<QueuedTask> queue_;
    std::uint64_t outstanding_ = 0; ///< submitted, not yet terminal
    bool stop_ = false;
    ExecutorStats stats_;
    std::vector<std::thread> threads_;
};

/**
 * A typed FIFO that one handler consumes on an Executor, at most one
 * call at a time: the order-keeping serial consumer behind a journal
 * stream's commits and the standby's applies. It owns no thread: a
 * post() that finds it idle submits one step, which handles the
 * queued items in post order until the queue is empty.
 *
 * With capacity > 0, post() blocks while that many items wait (the
 * one being handled does not count). On an inline pool, a post() to
 * an idle strand handles the item on the caller's thread before it
 * returns. discard() drops the queued items; a call in flight
 * completes. Destruction drains, so every posted item has run. The
 * pool must outlive the strand; destroying the pool first also runs
 * every queued item, and the strand then takes no further post().
 * The handler must not throw.
 */
template <typename T> class Executor::Strand
{
  public:
    using Handler = std::function<void(T &)>;

    /** @p label names each step's pool task (a static string). */
    Strand(Executor &pool, Handler handler, std::size_t capacity = 0,
           const char *label = "strand")
        : pool_(pool), handler_(std::move(handler)),
          capacity_(capacity), label_(label)
    {}
    Strand(const Strand &) = delete;
    Strand &operator=(const Strand &) = delete;
    ~Strand() { drain(); }

    /** Queue @p item, blocking while the queue is at capacity. */
    void
    post(T item)
    {
        std::unique_lock<std::mutex> lock(mu_);
        room_.wait(lock, [&] {
            return !capacity_ || queue_.size() < capacity_;
        });
        queue_.push_back(std::move(item));
        if (std::exchange(running_, true))
            return;
        lock.unlock();
        pool_.submit([this] { run(); }, {.label = label_});
    }

    /** Block until the queue is empty and no handler call runs. */
    void
    drain() const
    {
        std::unique_lock<std::mutex> lock(mu_);
        idle_.wait(lock, [&] { return !running_; });
    }

    /** Drop every queued item unrun. */
    void
    discard()
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.clear();
        room_.notify_all();
    }

  private:
    /** One step: handle items until the queue runs dry. */
    void
    run() noexcept
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!queue_.empty()) {
            T item = std::move(queue_.front());
            queue_.pop_front();
            room_.notify_all();
            lock.unlock();
            handler_(item);
            lock.lock();
        }
        running_ = false;
        idle_.notify_all();
    }

    Executor &pool_;
    const Handler handler_;
    const std::size_t capacity_;
    const char *const label_;
    mutable std::mutex mu_;
    mutable std::condition_variable room_, idle_;
    std::deque<T> queue_;
    bool running_ = false; ///< a step is queued or running
};

} // namespace dp

#endif // DP_EXEC_EXECUTOR_HH
