# Run one CLI tool with arguments it must reject, and check the
# contract: exit code 1 and MESSAGE on stderr exactly once.
#
#   cmake -DTOOL=path -DARGS="a|b|c" -DMESSAGE=text -P expect_fatal.cmake
#
# ARGS separates the tool's arguments with '|' (a ';' would split the
# -D value when ctest passes it through).

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(NOT code EQUAL 1)
    message(FATAL_ERROR "expected exit code 1, got '${code}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()

string(LENGTH "${err}" full)
string(REPLACE "${MESSAGE}" "" rest "${err}")
string(LENGTH "${rest}" left)
string(LENGTH "${MESSAGE}" each)
math(EXPR count "(${full} - ${left}) / ${each}")
if(NOT count EQUAL 1)
    message(FATAL_ERROR "expected '${MESSAGE}' once on stderr, found it "
                        "${count} times:\n${err}")
endif()
