package repro.dist

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Interaction, InvalidInteraction}

/** The ingestion step of a component's replay: order, dense ids, checks. */
class ComponentInputSpec extends AnyFunSuite {
  private def row(id: Long, ts: Long, src: Long, dst: Long, qty: Double = 1.0) =
    TaggedInteraction(id, ts, src, dst, qty, component = 0L)

  test("rows come out in (t, id) order over dense ids that keep the id order") {
    val big = 1L << 40
    val in = ComponentInput(Iterator(row(2, 5, big + 7, 3), row(1, 5, 3, big), row(0, 9, big, 3)),
                            carried = Seq(11L))
    assert(in.interactions.map(r => (r.id, r.s, r.d)).toSeq === Seq((1, 0, 2), (2, 3, 0), (0, 2, 0)))
    assert(Seq(0L, 1L, 2L, 3L).map(in.decode) === Seq(3L, 11L, big, big + 7))
    assert(in.encode(11L) === 1L)
    assert(in.decode(-1L) === -1L)
  }

  test("a negative vertex id or a non-finite quantity is rejected, naming the row") {
    val neg = intercept[InvalidInteraction](ComponentInput(Iterator(row(0, 1, 1, 2), row(1, 2, 3, -1))))
    assert(neg.row === Interaction(3, -1, 2, 1.0, 1))
    val inf = intercept[InvalidInteraction](ComponentInput(Iterator(row(4, 1, 1, 2, Double.PositiveInfinity))))
    assert(inf.row.id === 4L)
  }
}
