# ctest helper for scorecard.experiments_md_current: runs
# `cellrel_scorecard --seed 20200101` and compares its stdout with the block
# between <!-- scorecard:begin --> and <!-- scorecard:end --> in
# EXPERIMENTS.md, naming the first line that differs.
#
#   cmake -DSCORECARD=path/to/cellrel_scorecard -DDOC=EXPERIMENTS.md -P check_experiments_md.cmake
cmake_minimum_required(VERSION 3.16)
execute_process(COMMAND ${SCORECARD} --seed 20200101 OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cellrel_scorecard --seed 20200101 exited with ${rc}")
endif()

set(begin_marker "<!-- scorecard:begin -->\n")
file(READ ${DOC} doc)
string(FIND "${doc}" "${begin_marker}" begin)
string(FIND "${doc}" "<!-- scorecard:end -->" end)
if(begin EQUAL -1 OR end LESS begin)
  message(FATAL_ERROR "${DOC}: no <!-- scorecard:begin --> ... <!-- scorecard:end --> block")
endif()
string(LENGTH "${begin_marker}" marker_length)
math(EXPR begin "${begin} + ${marker_length}")
math(EXPR length "${end} - ${begin}")
string(SUBSTRING "${doc}" ${begin} ${length} expected)
if(expected STREQUAL actual)
  return()
endif()

# Walk both texts line by line to name the first difference.
set(line 1)
while(TRUE)
  foreach(side expected actual)
    string(FIND "${${side}}" "\n" newline)
    if(newline EQUAL -1)
      set(${side}_line "${${side}}")
      set(${side} "")
    else()
      string(SUBSTRING "${${side}}" 0 ${newline} ${side}_line)
      math(EXPR rest "${newline} + 1")
      string(SUBSTRING "${${side}}" ${rest} -1 ${side})
    endif()
  endforeach()
  if(NOT expected_line STREQUAL actual_line)
    message(FATAL_ERROR "EXPERIMENTS.md scorecard block is stale at block line ${line}:\n"
                        "  EXPERIMENTS.md:    ${expected_line}\n"
                        "  cellrel_scorecard: ${actual_line}\n"
                        "Regenerate it from `cellrel_scorecard --seed 20200101`.")
  endif()
  if(expected STREQUAL "" AND actual STREQUAL "")
    message(FATAL_ERROR "EXPERIMENTS.md scorecard block differs in its trailing newlines")
  endif()
  math(EXPR line "${line} + 1")
endwhile()
