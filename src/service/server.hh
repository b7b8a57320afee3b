/**
 * @file
 * The sweep-serving daemon core: accepts jobs over a unix-domain
 * socket (service/protocol), queues them with bounded backpressure,
 * executes each through core::runSuite, journals every completed leg
 * (service/journal) and streams progress to watching clients.
 *
 * Threading model: one poll()-driven network thread (run()) owns all
 * sockets and the job table; a scheduler of N coordinator threads
 * (--max-active) executes up to N jobs concurrently. All simulation
 * work runs on ONE shared thread pool sized to the global budget
 * (--total-threads). Each starting job gets a lease of
 * clamp(requested jobs, 1, budget) that caps its in-flight pool
 * tasks; leases are not subtracted from each other, so concurrent
 * jobs interleave in the pool's queue and a job started while another
 * runs still uses the whole pool once it is alone. The pool's OS
 * thread count never exceeds the budget. Coordinators
 * communicate with the network thread through a mutex-protected event
 * queue plus a wakeup pipe, and requestStop() is async-signal-safe (a
 * single write to a self-pipe), so SIGTERM handlers can call it
 * directly.
 *
 * Durability: the submit handler journals the job record before
 * acknowledging, the worker journals each completed leg, and a
 * terminal record (done/failed/cancelled) seals the file. A daemon
 * restarted over the same --journal-dir re-enqueues every unsealed
 * job with a skip-set of its journaled legs; the runner re-simulates
 * only the missing legs and the journaled results are injected back
 * into their slots, so the final report matches an uninterrupted run
 * leg for leg.
 *
 * Trace acquisition: every job runs runSuite with the daemon's own
 * --trace-cache directory (a client-supplied path is never used), so
 * served jobs take the same TraceStore + direction-sidecar path as
 * in-process runs: warm traces skip generation and direction
 * resolution, and each trace is decoded once per job and shared by
 * all of the job's policy legs.
 */

#ifndef GHRP_SERVICE_SERVER_HH
#define GHRP_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "report/report.hh"
#include "service/journal.hh"
#include "service/protocol.hh"
#include "util/thread_pool.hh"

namespace ghrp::service
{

/** Configuration of one daemon instance. */
struct ServerConfig
{
    std::string socketPath;   ///< unix-domain socket to listen on
    std::string journalDir;   ///< per-job journals + final reports
    std::string traceCacheDir;  ///< TraceStore root of every job ("" = env)

    /** Default thread request of jobs submitted with jobs == 0; 0
     *  requests the whole budget. The scheduler clamps every request
     *  to [1, budget] at start, so this is a ceiling, not a
     *  reservation. */
    unsigned jobs = 0;

    /** Global simulation thread budget: the size of the one pool
     *  every concurrent job leases from. 0 = hardware concurrency. */
    unsigned totalThreads = 0;

    /** Jobs running concurrently (scheduler coordinator threads).
     *  0 = the resolved totalThreads; 1 reproduces the old serial
     *  daemon exactly. Coordinators only harvest futures, so they add
     *  no OS-thread pressure beyond the pool budget. */
    unsigned maxActiveJobs = 0;

    /** Queued-job bound; submits beyond it are rejected with a
     *  retry-after hint (the running job does not count). */
    std::size_t maxQueue = 8;
    /** Retry-after hint attached to queue-full rejections. */
    unsigned retryAfterSeconds = 5;

    FsyncPolicy fsync = FsyncPolicy::EveryRecord;

    /** Test hook: start with the scheduler paused so queue behaviour
     *  (backpressure, priorities) is deterministic; resumeWorker()
     *  releases it. */
    bool startPaused = false;
};

/** Lifecycle states of a job. */
enum class JobState : std::uint8_t
{
    Queued,
    Running,
    Done,
    Failed,
    Cancelled
};

/** Display name ("queued", "running", ...). */
const char *jobStateName(JobState state);

class ServiceServer
{
  public:
    explicit ServiceServer(ServerConfig config);
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /**
     * Bind the socket, replay existing journals (re-enqueueing
     * unfinished jobs), create the shared simulation pool and start
     * the scheduler threads. Throws std::runtime_error on socket/
     * journal-directory failures.
     */
    void start();

    /**
     * Serve until requestStop(): accept clients, dispatch requests,
     * forward scheduler events to watchers. On exit every in-flight
     * job has drained its completed legs into its journal and the
     * scheduler has stopped.
     */
    void run();

    /**
     * Ask run() to return. Async-signal-safe (one byte to a self-
     * pipe); callable from signal handlers and other threads. The
     * in-flight job stops at the next leg boundary with its completed
     * legs journaled but no terminal record, so a restart resumes it.
     */
    void requestStop();

    /** Release a startPaused scheduler (test hook). */
    void resumeWorker();

    const ServerConfig &config() const { return cfg; }

    /** Journal path of @p job_id: <journalDir>/<job_id>.journal. */
    std::string journalPath(const std::string &job_id) const;
    /** Report path of @p job_id: <journalDir>/<job_id>.report.json. */
    std::string reportPath(const std::string &job_id) const;

  private:
    struct Job
    {
        std::string id;
        std::string experiment;
        core::SuiteOptions options;
        report::Json optionsJson = report::Json::object();
        std::int64_t priority = 0;
        double timeoutSeconds = 0.0;  ///< 0 = no timeout

        JobState state = JobState::Queued;
        std::string error;
        std::size_t completedLegs = 0;
        std::size_t totalLegs = 0;

        /** When the job entered the queue (submit or recovery); the
         *  enqueue-to-start wait histogram is measured from here. */
        std::chrono::steady_clock::time_point enqueuedAt{};

        /** Legs recovered from the journal on restart, keyed by
         *  (trace index, policy); injected into the runner's skipped
         *  slots before the report is built. */
        std::map<std::pair<std::size_t, frontend::PolicySpec>,
                 report::Leg>
            recoveredLegs;

        /** In-flight pool task cap while running (the lease). */
        unsigned leasedThreads = 0;

        /** Newest flight-recorder record of the latest finished leg
         *  (protocol minor 3), attached to progress frames so `watch
         *  --phases` can render a live readout. Only set when the job
         *  runs with a non-zero phase window. */
        bool hasLatestPhase = false;
        report::Json latestPhase = report::Json::object();

        bool cancelRequested = false;
    };

    struct Connection
    {
        int fd = -1;
        FrameDecoder decoder;
        std::string outBuffer;
        std::string watchedJob;  ///< non-empty: streaming progress
        bool closeAfterFlush = false;
    };

    /** Worker -> network-thread notification. */
    struct Event
    {
        enum class Kind : std::uint8_t
        {
            Progress,
            StateChange
        };
        Kind kind = Kind::Progress;
        std::string job;
        std::size_t completed = 0;
        std::size_t total = 0;
        std::string leg;  ///< "trace / policy" label (Progress)
        /** Wall seconds since the job started running (Progress). */
        double elapsedSeconds = 0.0;
    };

    // --- network thread ---------------------------------------------
    void bindSocket();
    void acceptClient();
    void handleReadable(Connection &conn);
    void dispatch(Connection &conn, const report::Json &message);
    void cmdSubmit(Connection &conn, const report::Json &message);
    void cmdStatus(Connection &conn, const report::Json &message);
    void cmdWatch(Connection &conn, const report::Json &message);
    void cmdResult(Connection &conn, const report::Json &message);
    void cmdCancel(Connection &conn, const report::Json &message);
    void sendMessage(Connection &conn, const report::Json &message);
    void sendError(Connection &conn, const std::string &text);
    void flushOut(Connection &conn);
    void closeConnection(std::size_t index);
    void drainEvents();
    report::Json jobStatusMessage(const Job &job);

    // --- scheduler (coordinator threads) ----------------------------
    void workerMain();
    void executeJob(const std::string &job_id, unsigned lease);
    void postEvent(Event event);

    // --- startup ----------------------------------------------------
    void recoverJournals();
    bool recoverOne(const std::string &job_id);

    ServerConfig cfg;

    int listenFd = -1;
    int stopPipe[2] = {-1, -1};   ///< requestStop -> poll wakeup
    int eventPipe[2] = {-1, -1};  ///< worker events -> poll wakeup
    std::vector<Connection> connections;
    bool stopping = false;  ///< network thread only
    /** Seen by the worker's cancellation hook from runner threads. */
    std::atomic<bool> stopRequested{false};

    /** Guards jobs, queue, counters and scheduler pause state. */
    std::mutex jobsMutex;
    std::condition_variable workerCv;
    std::map<std::string, Job> jobs;
    /** Queued job ids; coordinators pop the best (priority, FIFO). */
    std::deque<std::string> queue;
    std::uint64_t nextJobNumber = 1;
    bool workerPaused = false;
    bool workerExit = false;

    /** When start() ran; drives the service.uptime_seconds gauge. */
    std::chrono::steady_clock::time_point startedAt{};

    /** Resolved budget/concurrency (start()); immutable afterwards. */
    unsigned totalThreads = 0;
    unsigned maxActiveJobs = 0;
    unsigned activeJobs = 0;  ///< jobs in state Running (jobsMutex)

    /** The one pool all concurrent jobs lease simulation threads
     *  from; coordinators only block on futures. */
    std::unique_ptr<util::ThreadPool> simPool;
    std::vector<std::thread> workers;  ///< scheduler coordinators

    std::mutex eventsMutex;
    std::deque<Event> events;
};

} // namespace ghrp::service

#endif // GHRP_SERVICE_SERVER_HH
