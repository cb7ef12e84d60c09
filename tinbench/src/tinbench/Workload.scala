package tinbench

import scala.collection.mutable

/** What one timed pass measured. Times are for the timed region only;
  * output checks run after it.
  *
  * @param gcS          GC time within the timed region
  * @param jitS         CPU time of the JIT compiler threads in it
  * @param replayRates  interactions per process-CPU-second of each replay
  * @param peakBytes    peak accounted state bytes (one per engine, or one
  *                     for the whole pass)
  * @param failed       operations of this pass whose output check failed
  * @param layers       per-layer readings of this pass (traced runs)
  */
final case class PassResult(
    wallS: Double,
    cpuS: Double,
    allocBytes: Long,
    gcS: Double,
    jitS: Double,
    interactions: Long,
    replayRates: Seq[Double],
    peakBytes: Seq[Double],
    ops: Int,
    failed: Int,
    layers: Seq[(String, Double)],
)

/** A benchmark workload: `setup` builds the input and warms up; each
  * `pass` attempts the same operations.
  */
trait Workload {
  def setup(): Unit
  def pass(): PassResult
  /** False while warming up without checks. */
  protected var checking = true
  /** Untimed passes. With `checked`, their output checks run too (a
    * failure is printed, not counted), so that the checks' code has
    * already been compiled, and has left its mark on the type profiles
    * of the library code it shares with the program, before the first
    * timed pass.
    */
  protected def warmUp(passes: Int, checked: Boolean): Unit = {
    checking = checked
    try (1 to passes).foreach(_ => pass()) finally checking = true
  }
  def close(): Unit = ()
}

object Workload {
  /** Failures of one pass, with their reasons printed to stderr. */
  final class Failures(enabled: Boolean) {
    private val reasons = mutable.ArrayBuffer.empty[String]
    def check(op: String)(result: => Option[String]): Unit =
      if (enabled) (try result catch { case e: Exception => Some(e.toString) }).foreach { why =>
        reasons += s"$op: $why"
        Console.err.println(s"[tinbench] check failed: $op: $why")
      }
    def count: Int = reasons.size
    def ops: Set[String] = reasons.map(_.takeWhile(_ != ':')).toSet
  }
}
