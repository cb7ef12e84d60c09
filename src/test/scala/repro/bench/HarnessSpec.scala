package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Benchmark harness plumbing: engine mapping, infeasibility reporting
  * and formatting.
  */
class HarnessSpec extends AnyFunSuite {

  test("engineFor covers every Tables-7/8 column") {
    Harness.PolicyColumns.foreach { c =>
      val e = Harness.engineFor(c, numVertices = 10, budgetBytes = MemoryModel.Unbounded)
      e.process(Interaction(0, 1, 0, 1.0))
      assert(e.bufferTotal(1L) === 1.0, c)
    }
    intercept[RuntimeException] { Harness.engineFor("Bogus", 1, 1L) }
  }

  test("drive reports ok runs with timing and peak memory") {
    val rs = TestTins.random(1, nV = 6, n = 200).toArray
    val r = Harness.runPolicy("FIFO", rs, numVertices = 6)
    assert(r.status === "ok")
    assert(r.timeSec >= 0.0)
    assert(r.peakBytes > 0)
    assert(r.timeCell.matches("""\d+\.\d{3}"""))
    assert(r.memCell.endsWith("B"))
  }

  test("drive reports memory infeasibility as the paper's '—'") {
    val rs = TestTins.random(2, nV = 20, n = 500).toArray
    val r = Harness.runPolicy("PropSparse", rs, numVertices = 20,
                              budgetBytes = 4 * MemoryModel.PairBytes)
    assert(r.status === "mem")
    assert(r.timeCell.startsWith("—"))
    assert(r.memCell.startsWith("—"))
  }

  test("drive enforces the wall-clock budget") {
    val rs = TestTins.random(3, nV = 50, n = 200_000).toArray
    val r = Harness.runPolicy("PropSparse", rs, numVertices = 50,
                              maxSeconds = 0.0)
    assert(r.status === "time")
  }

  test("fmtBytes picks sensible units") {
    assert(Harness.fmtBytes(512) === "512B")
    assert(Harness.fmtBytes(2048) === "2.00KB")
    assert(Harness.fmtBytes(3 * 1024 * 1024) === "3.00MB")
    assert(Harness.fmtBytes(5L * 1024 * 1024 * 1024) === "5.00GB")
  }

  test("markdownTable renders header, rule, and rows") {
    val s = Harness.markdownTable(Seq("a", "b"), Seq(Seq("1", "2"), Seq("3", "4")))
    assert(s === "| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n")
  }
}
