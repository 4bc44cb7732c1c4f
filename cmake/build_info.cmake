# Stamp build provenance into sim/build_info.hh: the abbreviated commit,
# marked +dirty when tracked files differ from HEAD, and the toolchain.
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -DGIT_EXECUTABLE=<git>
#         -DCMAKE_CXX_COMPILER_ID=<id> -DCMAKE_CXX_COMPILER_VERSION=<v>
#         -DCMAKE_BUILD_TYPE=<type> -P cmake/build_info.cmake
#
# The top-level build runs this at configure time and again on every
# build. configure_file() rewrites OUTPUT only when its text changes, so
# an unchanged stamp recompiles nothing.

set(NOCSTAR_GIT_SHA "unknown")
if(GIT_EXECUTABLE)
    execute_process(
        COMMAND ${GIT_EXECUTABLE} rev-parse --short=12 HEAD
        WORKING_DIRECTORY ${SOURCE_DIR}
        OUTPUT_VARIABLE _git_sha
        OUTPUT_STRIP_TRAILING_WHITESPACE
        ERROR_QUIET
        RESULT_VARIABLE _git_rc)
    if(_git_rc EQUAL 0)
        set(NOCSTAR_GIT_SHA "${_git_sha}")
        execute_process(
            COMMAND ${GIT_EXECUTABLE} diff --quiet HEAD
            WORKING_DIRECTORY ${SOURCE_DIR}
            RESULT_VARIABLE _git_dirty
            ERROR_QUIET)
        if(NOT _git_dirty EQUAL 0)
            set(NOCSTAR_GIT_SHA "${NOCSTAR_GIT_SHA}+dirty")
        endif()
    endif()
endif()
configure_file(${SOURCE_DIR}/src/sim/build_info.hh.in ${OUTPUT} @ONLY)
