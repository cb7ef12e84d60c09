package repro.bench

import repro.core._

/** Shared benchmark harness behind the Table 6–10 bench suites and the
  * spark-submit jobs: runs one selection policy over one dataset's
  * interaction stream with wall-clock timing, analytic memory metering,
  * and the paper's infeasibility semantics ("—" on blowing the memory
  * budget, see [[repro.core.MemoryModel]]; additionally on exceeding a
  * wall-clock budget, since a JVM run that would OOM 32 GB-scale lists
  * first spends minutes merging them).
  */
object Harness {

  /** The seven policy columns of Tables 7/8, in paper order. */
  val PolicyColumns: Seq[String] =
    Seq("NoProv", "LRB", "MRB", "LIFO", "FIFO", "PropDense", "PropSparse")

  /** Outcome of one (policy × dataset) run. */
  final case class RunResult(
      timeSec: Double,
      peakBytes: Long,
      status: String, // "ok" | "mem" | "time"
  ) {
    def timeCell: String =
      if (status == "ok") f"$timeSec%.3f" else s"— ($status)"
    def memCell: String =
      if (status == "ok") Harness.fmtBytes(peakBytes) else s"— ($status)"
  }

  /** Build the engine for a Tables-7/8 policy column. */
  def engineFor(policyName: String, numVertices: Int, budgetBytes: Long): ProvenanceEngine =
    policyName match {
      case "NoProv"     => new NoProv(budgetBytes)
      case "LRB"        => new OrderedEngine(Policy.LeastRecentlyBorn, budgetBytes = budgetBytes)
      case "MRB"        => new OrderedEngine(Policy.MostRecentlyBorn, budgetBytes = budgetBytes)
      // consolidate = true: the per-origin buffer layout of the paper's
      // measured implementation (Fig. 1) — see OrderedEngine's doc.
      case "LIFO" =>
        new OrderedEngine(Policy.Lifo, budgetBytes = budgetBytes, consolidate = true)
      case "FIFO" =>
        new OrderedEngine(Policy.Fifo, budgetBytes = budgetBytes, consolidate = true)
      case "PropDense"  => new ProportionalDense(numVertices, budgetBytes)
      case "PropSparse" => new ProportionalSparse(budgetBytes)
      case other        => sys.error(s"unknown policy column: $other")
    }

  /** Drive `engine` over `rs`, enforcing the wall-clock budget. */
  def drive(engine: ProvenanceEngine, rs: Array[Interaction],
            maxSeconds: Double): RunResult = {
    val t0 = System.nanoTime()
    var i = 0
    try {
      while (i < rs.length) {
        engine.process(rs(i))
        i += 1
        if ((i & 0x3fff) == 0 && (System.nanoTime() - t0) / 1e9 > maxSeconds)
          return RunResult((System.nanoTime() - t0) / 1e9, engine.memory.peakBytes, "time")
      }
      RunResult((System.nanoTime() - t0) / 1e9, engine.memory.peakBytes, "ok")
    } catch {
      case _: InfeasibleError =>
        RunResult((System.nanoTime() - t0) / 1e9, engine.memory.peakBytes, "mem")
    }
  }

  /** Run one policy column over one dataset's interactions. */
  def runPolicy(policyName: String, rs: Array[Interaction], numVertices: Int,
                budgetBytes: Long = MemoryModel.DefaultBudgetBytes,
                maxSeconds: Double = 120.0): RunResult =
    drive(engineFor(policyName, numVertices, budgetBytes), rs, maxSeconds)

  /** Human-readable bytes, matching the paper's KB/MB/GB cells. */
  def fmtBytes(b: Long): String =
    if (b >= (1L << 30)) f"${b / (1024.0 * 1024 * 1024)}%.2fGB"
    else if (b >= (1L << 20)) f"${b / (1024.0 * 1024)}%.2fMB"
    else if (b >= (1L << 10)) f"${b / 1024.0}%.2fKB"
    else s"${b}B"

  /** Render a markdown table (used by every bench to print paper-vs-ours
    * rows into bench_output.txt).
    */
  def markdownTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append("| ").append(header.mkString(" | ")).append(" |\n")
    sb.append("|").append(header.map(_ => "---").mkString("|")).append("|\n")
    rows.foreach(r => sb.append("| ").append(r.mkString(" | ")).append(" |\n"))
    sb.toString
  }
}
