#include "parallel/level_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "parallel/mwk_level.h"
#include "parallel/scheduler.h"

namespace smptree {
namespace {

TEST(ErrorSinkTest, FirstErrorWins) {
  ErrorSink sink;
  EXPECT_FALSE(sink.aborted());
  EXPECT_TRUE(sink.status().ok());
  sink.Record(Status::OK());  // ignored
  EXPECT_FALSE(sink.aborted());
  sink.Record(Status::IOError("first"));
  sink.Record(Status::Corruption("second"));
  EXPECT_TRUE(sink.aborted());
  EXPECT_TRUE(sink.status().IsIOError());
  EXPECT_EQ(sink.status().message(), "first");
}

TEST(ErrorSinkTest, ConcurrentRecordsKeepExactlyOne) {
  ErrorSink sink;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&sink, t] {
      sink.Record(Status::Aborted("thread " + std::to_string(t)));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(sink.aborted());
  EXPECT_TRUE(sink.status().IsAborted());
}

TEST(ErrorSinkTest, EarlierRecordWinsOverConcurrentLaterOnes) {
  // Deterministic ordering: the first failure is recorded before any of the
  // racing threads start, so whatever interleaving they produce, status()
  // must still be the original one.
  ErrorSink sink;
  sink.Record(Status::IOError("original"));
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&sink, t] {
      sink.Record(Status::Corruption("late " + std::to_string(t)));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(sink.status().IsIOError());
  EXPECT_EQ(sink.status().message(), "original");
}

TEST(ErrorSinkTest, AbortedPublishesPriorWrites) {
  // aborted() is documented as an acquire load pairing with the release
  // store in Record(): a peer that sees aborted() == true must also see
  // every plain write the failing thread made before recording.
  for (int round = 0; round < 100; ++round) {
    ErrorSink sink;
    int payload = 0;  // plain int on purpose: ordered only via the sink
    std::thread writer([&] {
      payload = 42;
      sink.Record(Status::Internal("publish"));
    });
    while (!sink.aborted()) {
    }
    EXPECT_EQ(payload, 42);
    writer.join();
  }
}

TEST(RunThreadTeamTest, AllThreadsRun) {
  ErrorSink sink;
  std::atomic<int> ran{0};
  std::atomic<uint32_t> tid_mask{0};
  Status s = RunThreadTeam(5, &sink, [&](int tid) {
    ran.fetch_add(1);
    tid_mask.fetch_or(1u << tid);
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(tid_mask.load(), 0b11111u);
}

TEST(RunThreadTeamTest, ReturnsSinkVerdict) {
  ErrorSink sink;
  Status s = RunThreadTeam(3, &sink, [&](int tid) {
    if (tid == 2) sink.Record(Status::Internal("boom"));
  });
  EXPECT_TRUE(s.IsInternal());
}

TEST(RunThreadTeamTest, SingleThreadRunsInline) {
  ErrorSink sink;
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  Status s = RunThreadTeam(1, &sink, [&](int) {
    seen = std::this_thread::get_id();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(seen == caller);
}

TEST(TimedBarrierWaitTest, AccountsWaits) {
  BuildCounters counters;
  Barrier barrier(4);
  std::atomic<int> serials{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < 10; ++p) {
        if (TimedBarrierWait(&barrier, &counters)) serials.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counters.barrier_waits.load(), 40u);
  EXPECT_EQ(serials.load(), 10);
}

TEST(WaitTimerTest, RecordsExactlyOneWaitWithElapsedTime) {
  BuildCounters counters;
  {
    WaitTimer wt(&counters);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(counters.condvar_waits.load(), 1u);
  EXPECT_GE(counters.wait_nanos.load(), 1'000'000u);  // at least 1ms of 5
}

TEST(WaitTimerTest, FastPathRecordsNothing) {
  // The contract (see WaitTimer's doc comment): a wait whose predicate is
  // already true must not construct a WaitTimer. MwkPipeline implements
  // that contract, so waiting on an already-processed leaf and an
  // already-open gate must leave the counters untouched.
  MwkPipeline p;
  p.Arm(1);
  EXPECT_TRUE(p.MarkDone(0));
  p.OpenGate();
  BuildCounters counters;
  p.WaitForLeaf(0, &counters);
  p.WaitGate(&counters);
  EXPECT_EQ(counters.condvar_waits.load(), 0u);
  EXPECT_EQ(counters.wait_nanos.load(), 0u);
}

/// The scheduler state letter (R, S, D, ...) of thread `tid` of this
/// process, read from /proc; '?' while the file is not readable.
char ThreadState(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  const std::string stat((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // "tid (comm) S ...": comm may hold spaces or parentheses itself.
  const size_t close = stat.rfind(')');
  return close == std::string::npos || close + 2 >= stat.size()
             ? '?'
             : stat[close + 2];
}

TEST(WaitTimerTest, BlockedWaitRecordsExactlyOne) {
  // A wait that really blocks accounts exactly one condvar wait, no matter
  // how many spurious wakeups the while-loop absorbs.
  MwkPipeline p;
  p.Arm(2);
  BuildCounters counters;
  std::atomic<pid_t> waiter_tid{0};
  std::thread waiter([&] {
    waiter_tid.store(gettid(), std::memory_order_release);
    p.WaitForLeaf(1, &counters);
  });
  // Only MarkDone takes the pipeline's mutex besides the waiter, so once
  // the waiter sleeps it sleeps in WaitForLeaf's condvar wait.
  pid_t tid = 0;
  while ((tid = waiter_tid.load(std::memory_order_acquire)) == 0) {
    std::this_thread::yield();
  }
  while (ThreadState(tid) != 'S') std::this_thread::yield();
  p.MarkDone(1);
  waiter.join();
  EXPECT_EQ(counters.condvar_waits.load(), 1u);
  EXPECT_GT(counters.wait_nanos.load(), 0u);
}

TEST(DynamicSchedulerTest, HandsOutEachIndexOnce) {
  DynamicScheduler sched;
  sched.Reset(1000);
  std::vector<std::atomic<int>> taken(1000);
  for (auto& t : taken) t.store(0);
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&] {
      for (int64_t i = sched.Next(); i >= 0; i = sched.Next()) {
        taken[i].fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(taken[i].load(), 1) << i;
  }
  EXPECT_EQ(sched.Next(), -1);
}

TEST(DynamicSchedulerTest, ResetRearms) {
  DynamicScheduler sched;
  sched.Reset(2);
  EXPECT_EQ(sched.Next(), 0);
  EXPECT_EQ(sched.Next(), 1);
  EXPECT_EQ(sched.Next(), -1);
  sched.Reset(1);
  EXPECT_EQ(sched.Next(), 0);
  EXPECT_EQ(sched.Next(), -1);
  sched.Reset(0);
  EXPECT_EQ(sched.Next(), -1);
}

}  // namespace
}  // namespace smptree
