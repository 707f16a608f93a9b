package primitives

// A zone-bounded pre-aggregation folds the rows of one scan unit into a DMEM
// table indexed directly by each key's offset from its zone's minimum (a
// mixed-radix index over several keys), so the slot is the key and the table
// holds the aggregate states only. At the unit's end the occupied slots leave
// as (keys, states) rows.

// PreAggRowCost is the modeled cycles of folding one selected row into the
// table: the slot index, one subtract and multiply-add per key; the
// occupancy bit, a load, OR and store of its word; and each state's update,
// a grouped-aggregate fold (GroupedSums and its siblings), a COUNT(*) at half
// (GroupedCounts). folds counts the states that read a value, stars the
// COUNT(*)s.
func PreAggRowCost(keys, folds, stars int) float64 {
	return costArithPerRow*float64(keys) + costGatherPerRow +
		costGroupedAggPerRow*(float64(folds)+0.5*float64(stars))
}

// PreAggRIDCost is the modeled cycles of reading one selected row of a
// sparse tile by its RID, as ScalarAggOp bills its gather.
const PreAggRIDCost = costGatherPerRow

// PreAggSlotCost is the modeled cycles one slot of a unit's table costs
// whether or not a row lands in it: its states set to their identities
// before the unit, and its keys decoded from the slot when the unit's table
// is emitted. The occupancy words are scanned at costFilterPerWord each.
func PreAggSlotCost(slots, keys, states int) float64 {
	return float64(slots)*(costWidenPerRow*float64(states)+costArithPerRow*float64(keys)) +
		costFilterPerWord*float64((slots+63)/64)
}

// PreAggDroppedCost is the modeled cycles a pre-aggregation saves for every
// row it keeps from the partitioned group-by above: what that group-by
// spends on the row, in cycles and, at cyclesPerByte, in the DMS bytes it
// moves (cols 8-byte columns as collected without the step):
//
//	collect    costWidenPerRow·cols, and the write               8·cols B
//	partition  the DMS hash engine's key read                     8·keys B
//	           per software round: costPartMapPerRow +
//	           costSwPartGatherPerRow·cols, the read and write   16·cols B
//	group-by   the key widen costWidenPerRow·keys, the table's
//	           probe loop (3 cycles), each state's fold
//	           costGroupedAggPerRow and argument widen costWidenPerRow
//	           (a COUNT(*) folds at half and reads no argument)
func PreAggDroppedCost(keys, folds, stars, cols, swRounds int, cyclesPerByte float64) float64 {
	const probe = 3.0
	k, c, r := float64(keys), float64(cols), float64(swRounds)
	cycles := costWidenPerRow*c +
		r*(costPartMapPerRow+costSwPartGatherPerRow*c) +
		costWidenPerRow*k + probe +
		(costGroupedAggPerRow+costWidenPerRow)*float64(folds) + costGroupedAggPerRow*0.5*float64(stars)
	bytes := 8*c + 8*k + r*16*c
	return cycles + bytes*cyclesPerByte
}

// PreAggBreakEven is the largest ratio of rows out to rows in at which a
// pre-aggregation still pays per row. Every row in costs PreAggRowCost (plus
// PreAggRIDCost when the tiles arrive sparse, which this rule leaves out);
// every row it keeps from the group-by saves PreAggDroppedCost. The step
// pays when in·cost < (in − out)·saved, so the break-even is 1 − cost/saved.
// For Q18's sub-query (one key, one SUM, two columns, one software round) at
// the default SoC's 1.98 cycles a byte: 1 − 5.5/129.1 = 0.957.
func PreAggBreakEven(keys, folds, stars, cols, swRounds int, cyclesPerByte float64) float64 {
	return 1 - PreAggRowCost(keys, folds, stars)/PreAggDroppedCost(keys, folds, stars, cols, swRounds, cyclesPerByte)
}
